package genclose

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

func (registered) TracksGenerators() bool { return true }

func init() {
	registry.RegisterClosed("genclose", registered{})
}
