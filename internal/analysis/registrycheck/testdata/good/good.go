// Package good mirrors the sanctioned registration idioms: literal
// lowercase names registered once from init, the same name reused
// across the distinct RegisterClosed/RegisterFrequent namespaces, a
// builder whose Name() matches its registration, and the root
// package's forwarding re-export shape. The registry analyzer must
// stay silent on every line; any diagnostic here is a false positive.
package good

import (
	"context"

	"closedrules/internal/basis"
	"closedrules/internal/closedset"
	"closedrules/internal/dataset"
	"closedrules/internal/itemset"
	"closedrules/internal/miner"
)

func init() {
	miner.RegisterClosed("good-miner", goodMiner{})
	miner.RegisterFrequent("good-miner", goodMiner{})
	basis.Register("good-basis", goodBasis{})
}

// One package registering two generator-tracking variants as two
// distinct literal names from a second init function (the eclat/declat
// shape). Both registrations are sanctioned.
func init() {
	miner.RegisterClosed("good-genminer", genMiner{})
	miner.RegisterClosed("pgood-genminer", genMiner{})
}

// genMiner mirrors a generator-tracking closed miner (the genclose
// registration shape).
type genMiner struct{}

func (genMiner) MineClosed(ctx context.Context, d *dataset.Dataset, minSup int) ([]closedset.Closed, error) {
	return nil, ctx.Err()
}

func (genMiner) TracksGenerators() bool { return true }

// RegisterAlias is the root-package re-export shape: forwarding a
// name parameter through is not a registration — the discipline
// applies at the wrapper's call sites.
func RegisterAlias(name string, m miner.ClosedMiner) {
	miner.RegisterClosed(name, m)
}

type goodMiner struct{}

func (goodMiner) MineClosed(ctx context.Context, d *dataset.Dataset, minSup int) ([]closedset.Closed, error) {
	return nil, ctx.Err()
}

func (goodMiner) TracksGenerators() bool { return false }

func (goodMiner) MineFrequent(ctx context.Context, d *dataset.Dataset, minSup int) ([]itemset.Counted, error) {
	return nil, ctx.Err()
}

type goodBasis struct{}

func (goodBasis) Name() string { return "good-basis" }

func (goodBasis) Requirements() basis.Requirements { return basis.Requirements{} }

func (goodBasis) Build(ctx context.Context, in basis.BuildInput) (basis.RuleSet, error) {
	return basis.RuleSet{}, ctx.Err()
}
