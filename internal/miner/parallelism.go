package miner

import (
	"context"
	"runtime"
)

// parallelismKey carries the worker-count hint through a context. The
// registry interfaces stay two-method (MineClosed/MineFrequent work on
// ctx, dataset, minSup alone); the degree of parallelism is a tuning
// hint, and tuning hints travel on the context so the miners that run
// on one goroutine can ignore them without interface churn.
type parallelismKey struct{}

// ContextWithParallelism returns a context carrying a worker-count
// hint for charm, eclat and declat. n < 1 leaves ctx unchanged.
func ContextWithParallelism(ctx context.Context, n int) context.Context {
	if n < 1 {
		return ctx
	}
	return context.WithValue(ctx, parallelismKey{}, n)
}

// ParallelismFromContext resolves the worker count a class-parallel
// miner uses: the context hint when present, else GOMAXPROCS.
func ParallelismFromContext(ctx context.Context) int {
	if n, ok := ctx.Value(parallelismKey{}).(int); ok && n >= 1 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}
