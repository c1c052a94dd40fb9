package eclat

import (
	"context"

	"closedrules/internal/dataset"
	"closedrules/internal/itemset"
	"closedrules/internal/miner"
)

type registered struct{}

func (registered) MineFrequent(ctx context.Context, d *dataset.Dataset, minSup int) ([]itemset.Counted, error) {
	fam, err := MineContext(ctx, d, minSup)
	if err != nil {
		return nil, err
	}
	return fam.All(), nil
}

type registeredDiffset struct{}

func (registeredDiffset) MineFrequent(ctx context.Context, d *dataset.Dataset, minSup int) ([]itemset.Counted, error) {
	fam, err := MineDiffsetContext(ctx, d, minSup)
	if err != nil {
		return nil, err
	}
	return fam.All(), nil
}

func init() {
	miner.RegisterFrequent("eclat", registered{})
	miner.RegisterFrequent("declat", registeredDiffset{})
}
