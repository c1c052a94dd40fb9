package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"closedrules"
)

// questTableSeed fixes QUEST's table of potential patterns. The
// benchmark's seed then picks which transactions a run sees: QUEST
// draws transactions independently from the table, so a seeded sample
// of a larger stream is a fresh T10I4 dataset, while every seed keeps
// the same pattern statistics and so a comparable amount of work.
const questTableSeed = 1

// sparseDat returns QUEST T10I4 over sparseItems items as .dat lines:
// the first sparseTx lines are the base data and the extra lines after
// them, from the same stream, are appended later.
func sparseDat(seed int64, extra int) ([]string, error) {
	n := sparseTx + extra
	d, err := closedrules.GenerateQuest(closedrules.QuestT10I4(max(3*sparseTx, 2*n), sparseItems, questTableSeed))
	if err != nil {
		return nil, err
	}
	stream, err := datLines(d)
	if err != nil {
		return nil, err
	}
	lines := make([]string, n)
	for i, j := range rand.New(rand.NewSource(seed)).Perm(len(stream))[:n] {
		lines[i] = stream[j]
	}
	return lines, nil
}

// denseDat generates MUSHROOMS* as .dat lines, with extra objects from
// the same stream after the first denseObjects.
func denseDat(seed int64, extra int) ([]string, error) {
	d, err := closedrules.GenerateMushroom(closedrules.MushroomConfig{NumObjects: denseObjects + extra, Seed: seed})
	if err != nil {
		return nil, err
	}
	return datLines(d)
}

func datLines(d *closedrules.Dataset) ([]string, error) {
	var buf bytes.Buffer
	if err := closedrules.WriteDat(&buf, d); err != nil {
		return nil, err
	}
	// Every line keeps its newline, so lines can be reordered and joined.
	lines := strings.SplitAfter(buf.String(), "\n")
	if lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1]
	}
	return lines, nil
}

// joinDat renders lines as .dat bytes.
func joinDat(lines []string) []byte { return []byte(strings.Join(lines, "")) }

// built is one ready snapshot and what it cost.
type built struct {
	qs      *closedrules.QueryService
	dur     time.Duration
	allocMB float64
}

// buildPipeline runs one fresh pipeline from .dat bytes to a ready
// QueryService, the way a library user does: ReadDat, MineContext with
// the default miner, then NewQueryService with the default served pair
// (Duquenne–Guigues + reduced Luxenburger). With a tracer it makes the
// same calls one layer at a time, each under its own span, and records
// the bytes each layer allocates in layers (MB, appended per call).
func buildPipeline(ctx context.Context, dat []byte, minSup float64, tr *tracer, trace int, layers map[string][]float64) (*built, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	var (
		qs  *closedrules.QueryService
		err error
	)
	if tr == nil {
		qs, err = plainPipeline(ctx, dat, minSup)
	} else {
		qs, err = tracedPipeline(ctx, dat, minSup, tr, trace, layers)
	}
	dur := time.Since(start)
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	return &built{qs: qs, dur: dur, allocMB: mb(m1.TotalAlloc - m0.TotalAlloc)}, nil
}

func plainPipeline(ctx context.Context, dat []byte, minSup float64) (*closedrules.QueryService, error) {
	d, err := closedrules.ReadDat(bytes.NewReader(dat))
	if err != nil {
		return nil, err
	}
	res, err := closedrules.MineContext(ctx, d, closedrules.WithMinSupport(minSup))
	if err != nil {
		return nil, err
	}
	return closedrules.NewQueryService(res, minConf)
}

func tracedPipeline(ctx context.Context, dat []byte, minSup float64, tr *tracer, trace int, layers map[string][]float64) (*closedrules.QueryService, error) {
	root := tr.start(trace, 0, "pipeline")
	layer := func(name string, fn func() error) error {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		id := tr.start(trace, root, name)
		err := fn()
		tr.end(id)
		runtime.ReadMemStats(&m1)
		if key := allocMetric[name]; key != "" {
			layers[key] = append(layers[key], mb(m1.TotalAlloc-m0.TotalAlloc))
		}
		return err
	}
	var (
		d             *closedrules.Dataset
		res           *closedrules.Result
		exact, approx *closedrules.RuleSet
		qs            *closedrules.QueryService
	)
	steps := []struct {
		name string
		fn   func() (err error)
	}{
		{"dataset.parse", func() (err error) { d, err = closedrules.ReadDat(bytes.NewReader(dat)); return }},
		{"dataset.context", func() error { d.Context(); return nil }},
		{"miner.mine", func() (err error) {
			res, err = closedrules.MineContext(ctx, d, closedrules.WithMinSupport(minSup))
			return
		}},
		// The exact basis includes the frequent-itemset pass it needs;
		// the approximate one includes the lattice build.
		{"basis.exact", func() (err error) { exact, err = res.Basis(ctx, "duquenne-guigues"); return }},
		{"basis.approx", func() (err error) {
			approx, err = res.Basis(ctx, "luxenburger", closedrules.WithMinConfidence(minConf))
			return
		}},
		// On memoized bases: what the snapshot itself costs.
		{"snapshot.build", func() (err error) { qs, err = closedrules.NewQueryService(res, minConf); return }},
	}
	for _, s := range steps {
		if err := layer(s.name, s.fn); err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	tr.end(root)
	// Counted after the root span ends; the lattice is memoized by now.
	layers["lattice.edges"] = append(layers["lattice.edges"], float64(len(res.LatticeEdges())))
	layers["miner.closed_sets"] = append(layers["miner.closed_sets"], float64(res.NumClosed()))
	layers["basis.exact_rules"] = append(layers["basis.exact_rules"], float64(exact.Len()))
	layers["basis.approx_rules"] = append(layers["basis.approx_rules"], float64(approx.Len()))
	return qs, nil
}

// allocMetric names the per-layer allocation metric of a span.
var allocMetric = map[string]string{
	"miner.mine":   "miner.alloc_mb",
	"basis.exact":  "basis.exact_alloc_mb",
	"basis.approx": "basis.approx_alloc_mb",
}

func mb(b uint64) float64 { return float64(b) / (1 << 20) }

// liveHeapMB is the live heap after a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return mb(m.HeapAlloc)
}

// digest fingerprints what a snapshot serves: its closed itemsets with
// supports and the rules of both served bases. Lines are sorted, so two
// miners that emit the same sets in another order agree.
func digest(ctx context.Context, qs *closedrules.QueryService) (string, error) {
	res := qs.ServedResult()
	if res == nil {
		return "", fmt.Errorf("snapshot has no mining result")
	}
	var lines []string
	for _, c := range res.ClosedItemsets() {
		lines = append(lines, fmt.Sprintf("fc %v %d", c.Items, c.Support))
	}
	sel := qs.ServedBases()
	for _, name := range []string{sel.Exact, sel.Approximate} {
		rs, err := qs.BasisRules(ctx, name, qs.MinConfidence())
		if err != nil {
			return "", err
		}
		for _, r := range rs.Rules {
			lines = append(lines, fmt.Sprintf("%s %v>%v %d %d", name, r.Antecedent, r.Consequent, r.Support, r.AntecedentSupport))
		}
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// referenceService mines with genclose, a second closed miner, and
// builds the same served pair: the oracle the default pipeline's output
// is checked against.
func referenceService(ctx context.Context, dat []byte, minSup float64) (*closedrules.QueryService, error) {
	d, err := closedrules.ReadDat(bytes.NewReader(dat))
	if err != nil {
		return nil, err
	}
	res, err := closedrules.MineContext(ctx, d, closedrules.WithMinSupport(minSup), closedrules.WithAlgorithm("genclose"))
	if err != nil {
		return nil, err
	}
	return closedrules.NewQueryService(res, minConf)
}

// appendBatch is the size of one appended batch for n base transactions.
func appendBatch(n int) int { return int(float64(n) * appendFrac) }
