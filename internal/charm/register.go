package charm

import (
	"context"

	"closedrules/internal/closedset"
	"closedrules/internal/dataset"
	registry "closedrules/internal/miner"
)

type registered struct{}

func (registered) MineClosed(ctx context.Context, d *dataset.Dataset, minSup int) ([]closedset.Closed, error) {
	fc, err := MineContext(ctx, d, minSup)
	if err != nil {
		return nil, err
	}
	return fc.All(), nil
}

func (registered) TracksGenerators() bool { return false }

func init() {
	registry.RegisterClosed("charm", registered{})
}
