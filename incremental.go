package closedrules

import (
	"context"
	"errors"
	"fmt"

	"closedrules/internal/dataset"
	"closedrules/internal/incremental"
	"closedrules/internal/miner"
)

// ErrIncremental marks conditions under which an incremental update
// cannot reproduce a full mine (lowered threshold, empty delta, …).
// Callers that see it should fall back to MineContext on the full
// dataset; errors.Is reports it on every refusal from UpdateAppend.
var ErrIncremental = errors.New("closedrules: incremental update not applicable")

// UpdateAppend derives the Result for prev's dataset extended by the
// appended transactions without re-mining: resident closed itemsets are
// re-counted against the delta and the (provably few) new closed
// itemsets are enumerated from the appended rows, per the delta
// argument documented in internal/incremental. The returned Result is
// byte-equivalent — same closed itemsets, supports, and derived
// generator-free bases — to MineContext over the concatenated dataset
// with the same options; prev is left untouched and keeps serving.
//
// The options are interpreted exactly as in MineContext, but the
// algorithm selection is ignored (the result's MinerName is
// "incremental") and the resolved absolute threshold must be at least
// prev's — true by construction for a relative threshold under appends.
// Generators are not maintained: the result has TracksGenerators() ==
// false, so bases that need generators (generic, informative) require a
// full re-mine instead — which a result descending from a defaulted
// MineContext runs by itself, as genclose generator resolution.
//
// Refusals — nil or empty inputs, a lowered threshold, a threshold
// above the new transaction count — return an error wrapping
// ErrIncremental. Context cancellation returns ctx.Err() unwrapped.
func UpdateAppend(ctx context.Context, prev *Result, appended *Dataset, opts ...MineOption) (*Result, error) {
	if prev == nil {
		return nil, fmt.Errorf("%w: nil previous result", ErrIncremental)
	}
	if appended == nil || appended.NumTransactions() == 0 {
		return nil, fmt.Errorf("%w: empty delta", ErrIncremental)
	}
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	// The algorithm option is unused here (the update engine is the
	// algorithm), but an unknown name must not succeed incrementally
	// when the same options would fail a full mine.
	if cfg.algorithm != "" {
		if _, err := miner.LookupClosed(cfg.algorithm); err != nil {
			return nil, err
		}
	}
	full, err := dataset.Concat(prev.d, appended)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrIncremental, err)
	}
	minSup, err := cfg.minSup(full)
	if err != nil {
		return nil, err
	}
	fc, err := incremental.Update(ctx, prev.fc, prev.minSup, full, prev.d.NumTransactions(), minSup)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, err
		}
		return nil, fmt.Errorf("%w: %v", ErrIncremental, err)
	}
	return &Result{
		d:           full,
		minSup:      minSup,
		minerName:   "incremental",
		hasGens:     false,
		resolveGens: prev.resolveGens,
		fc:          fc,
	}, nil
}
