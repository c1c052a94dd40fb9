package charm

import (
	"context"
	"slices"

	"closedrules/internal/closedset"
	"closedrules/internal/dataset"
	registry "closedrules/internal/miner"
)

type registered struct{}

// MineClosed hands the collector's list over in canonical (size, lex)
// order — the order of closedset.Set.All — sorted once in place, with
// no keyed Set or posting index built only to be copied out.
func (registered) MineClosed(ctx context.Context, d *dataset.Dataset, minSup int) ([]closedset.Closed, error) {
	fc, err := mine(ctx, d, minSup)
	if err != nil {
		return nil, err
	}
	slices.SortFunc(fc, func(a, b closedset.Closed) int { return a.Items.Compare(b.Items) })
	return fc, nil
}

func (registered) TracksGenerators() bool { return false }

func init() {
	registry.RegisterClosed("charm", registered{})
}
