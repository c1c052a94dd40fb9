package closedrules

import (
	"fmt"
	"io"
	"sync"

	"closedrules/internal/closedset"
	"closedrules/internal/core"
	"closedrules/internal/lattice"
)

// ClosedCollection wraps a set of frequent closed itemsets for
// analysis detached from the original transaction data — the "mine
// once, analyze later" workflow. Everything FC determines is
// available: supports and closures of arbitrary frequent itemsets, the
// iceberg lattice, the Luxenburger bases and (when the collection
// carries generators) the generic and informative bases. The
// collection does not expose the Duquenne–Guigues basis; use Mine +
// Result for it.
type ClosedCollection struct {
	set   *closedset.Set
	numTx int

	latOnce sync.Once
	lat     *lattice.Lattice
}

// NewClosedCollection builds a collection from closed itemsets, e.g.
// the output of LoadClosedItemsets. The collection must be a complete
// mining result (with its bottom element); |O| is recovered from the
// bottom's support.
func NewClosedCollection(items []ClosedItemset) (*ClosedCollection, error) {
	if len(items) == 0 {
		return nil, fmt.Errorf("closedrules: empty collection")
	}
	s := closedset.FromSlice(items)
	bot, ok := s.Bottom()
	if !ok {
		return nil, fmt.Errorf("closedrules: collection has no bottom element (incomplete FC)")
	}
	return &ClosedCollection{set: s, numTx: bot.Support}, nil
}

// ReadClosedCollection loads a collection saved by
// Result.SaveClosedItemsets.
func ReadClosedCollection(r io.Reader) (*ClosedCollection, error) {
	items, err := LoadClosedItemsets(r)
	if err != nil {
		return nil, err
	}
	return NewClosedCollection(items)
}

// Len returns |FC|.
func (c *ClosedCollection) Len() int { return c.set.Len() }

// HasGenerators reports whether every closed itemset in the collection
// carries at least one minimal generator — true when the collection
// was saved from a generator-tracking mining run (close, a-close,
// titanic, genclose). The generic and informative bases require it.
func (c *ClosedCollection) HasGenerators() bool { return c.set.HasGenerators() }

// NumTransactions returns |O| (the bottom element's support).
func (c *ClosedCollection) NumTransactions() int { return c.numTx }

// ClosedItemsets returns the collection in canonical order.
func (c *ClosedCollection) ClosedItemsets() []ClosedItemset { return c.set.All() }

// Closure returns h(X); ok is false when X is not frequent at the
// collection's threshold.
func (c *ClosedCollection) Closure(x Itemset) (ClosedItemset, bool) { return c.set.ClosureOf(x) }

// Support returns supp(X) = supp(h(X)).
func (c *ClosedCollection) Support(x Itemset) (int, bool) { return c.set.SupportOf(x) }

func (c *ClosedCollection) latticeOf() *lattice.Lattice {
	c.latOnce.Do(func() {
		c.lat = lattice.Build(c.set)
	})
	return c.lat
}

// LuxenburgerReduction returns the reduced Luxenburger basis of the
// collection at the given confidence.
func (c *ClosedCollection) LuxenburgerReduction(minConf float64) ([]Rule, error) {
	return core.LuxenburgerReduction(c.latticeOf(), c.set, core.LuxenburgerOptions{
		MinConfidence: minConf,
	})
}

// LuxenburgerFull returns the unreduced Luxenburger basis.
func (c *ClosedCollection) LuxenburgerFull(minConf float64) ([]Rule, error) {
	return core.LuxenburgerFull(c.set, core.LuxenburgerOptions{MinConfidence: minConf})
}

// GenericBasis returns the generic (minimal-generator) basis for exact
// rules; it requires the collection to carry generators.
func (c *ClosedCollection) GenericBasis() ([]Rule, error) {
	return core.GenericBasis(c.set)
}

// InformativeBasis returns the informative basis for approximate
// rules; reduced restricts consequents to lattice covers.
func (c *ClosedCollection) InformativeBasis(minConf float64, reduced bool) ([]Rule, error) {
	return core.InformativeBasis(c.latticeOf(), c.set, reduced, core.LuxenburgerOptions{
		MinConfidence: minConf,
	})
}

// LatticeDOT renders the collection's iceberg lattice in Graphviz
// format.
func (c *ClosedCollection) LatticeDOT(names []string) string {
	return c.latticeOf().DOT(names)
}
