package core

import (
	"context"
	"testing"

	"closedrules/internal/charm"
	"closedrules/internal/closedset"
	"closedrules/internal/dataset"
	"closedrules/internal/gen"
)

var benchPseudo []Pseudo

// BenchmarkPseudoClosedSets times the Duquenne–Guigues enumeration on
// FC alone, over the three data shapes it meets: sparse (QUEST
// T10I4D10K at minsup 0.005, few rules over a wide FC), dense
// (MUSHROOMS* at minsup 0.1, many pseudo-closed sets) and wide (5,000
// one-item transactions at support 1, every item frequent and none
// meeting another). The FC posting index is built before the timer:
// it is shared with every other reader of FC.
func BenchmarkPseudoClosedSets(b *testing.B) {
	mined := func(d *dataset.Dataset, err error, minSup int) (int, *closedset.Set) {
		if err != nil {
			b.Fatal(err)
		}
		fc, err := charm.Mine(d, minSup)
		if err != nil {
			b.Fatal(err)
		}
		return d.NumTransactions(), fc
	}
	cases := []struct {
		name string
		fc   func() (int, *closedset.Set)
	}{
		{"sparse", func() (int, *closedset.Set) {
			d, err := gen.Quest(gen.T10I4(10000, 500, 1))
			return mined(d, err, 50)
		}},
		{"dense", func() (int, *closedset.Set) {
			d, err := gen.Mushroom(gen.MushroomConfig{NumObjects: 8124, Seed: 1})
			return mined(d, err, 812)
		}},
		{"wide", func() (int, *closedset.Set) { return 5000, wideFC(5000, false) }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			numTx, fc := c.fc()
			fc.Index()
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, err := PseudoClosedSets(ctx, numTx, fc)
				if err != nil {
					b.Fatal(err)
				}
				benchPseudo = p
			}
		})
	}
}
