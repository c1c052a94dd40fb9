package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"strconv"
	"strings"
	"time"

	"closedrules"
)

type queryKind int

const (
	kindSupport queryKind = iota
	kindConfidence
	kindRecommend
	numKinds
)

var kindNames = [numKinds]string{"support", "confidence", "recommend"}

// query is one request of a workload's traffic: a support lookup of A,
// the confidence of A → B, or the top-k recommendations for basket A.
// Tenant queries go to /datasets/default/..., the others to the legacy
// routes; both are served from the same snapshot.
type query struct {
	kind   queryKind
	a, b   closedrules.Itemset
	tenant bool
}

// request is a query rendered for the wire before the load starts.
type request struct {
	method, path string
	body         []byte
}

func itemsParam(s closedrules.Itemset) string {
	parts := make([]string, len(s))
	for i, x := range s {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, ",")
}

func (q query) render() request {
	prefix := ""
	if q.tenant {
		prefix = "/datasets/default"
	}
	switch q.kind {
	case kindSupport:
		return request{method: "GET", path: prefix + "/support?items=" + url.QueryEscape(itemsParam(q.a))}
	case kindConfidence:
		return request{method: "GET", path: prefix + "/confidence?antecedent=" + url.QueryEscape(itemsParam(q.a)) +
			"&consequent=" + url.QueryEscape(itemsParam(q.b))}
	default:
		body, _ := json.Marshal(struct {
			Observed []int `json:"observed"`
			K        int   `json:"k"`
		}{append([]int{}, q.a...), recommendK}) // plain struct always marshals
		return request{method: "POST", path: prefix + "/recommend", body: body}
	}
}

// The traffic mix: 50% support, 20% confidence, 30% recommend, half of
// each on the tenant routes.
func pickKind(r *rand.Rand) queryKind {
	switch x := r.Float64(); {
	case x < 0.5:
		return kindSupport
	case x < 0.7:
		return kindConfidence
	default:
		return kindRecommend
	}
}

// keyPool draws the itemsets a workload queries, from a reference
// snapshot: baskets of frequent items and confidence pairs split from
// frequent itemsets, so every request has a 200 answer.
type keyPool struct {
	baskets []closedrules.Itemset
	pairs   [][2]closedrules.Itemset
}

// frequentItems lists the items with support at least minCount in the
// reference; minCount keeps keys frequent after appends raise the
// absolute threshold.
func frequentItems(ref *closedrules.QueryService, minCount int) []int {
	res := ref.ServedResult()
	var out []int
	for i := 0; i < res.Dataset().NumItems(); i++ {
		if sup, ok := res.Support(closedrules.Items(i)); ok && sup >= minCount {
			out = append(out, i)
		}
	}
	return out
}

// randomBasket draws n distinct items from items.
func randomBasket(r *rand.Rand, items []int, n int) closedrules.Itemset {
	if n > len(items) {
		n = len(items)
	}
	perm := r.Perm(len(items))[:n]
	b := make([]int, n)
	for i, p := range perm {
		b[i] = items[p]
	}
	return closedrules.Items(b...)
}

// splitPair draws a sub-itemset of 2–4 items of a closed itemset with
// at least two items (hence frequent) and splits it into a non-empty
// antecedent and consequent.
func splitPair(r *rand.Rand, multi []closedrules.ClosedItemset) [2]closedrules.Itemset {
	c := multi[r.Intn(len(multi))].Items
	sub := randomBasket(r, c, 2+r.Intn(3))
	cut := 1 + r.Intn(len(sub)-1)
	perm := r.Perm(len(sub))
	var a, b []int
	for i, p := range perm {
		if i < cut {
			a = append(a, sub[p])
		} else {
			b = append(b, sub[p])
		}
	}
	return [2]closedrules.Itemset{closedrules.Items(a...), closedrules.Items(b...)}
}

func multiItemClosed(ref *closedrules.QueryService, minCount int) ([]closedrules.ClosedItemset, error) {
	var out []closedrules.ClosedItemset
	for _, c := range ref.ServedResult().ClosedItemsets() {
		if c.Items.Len() >= 2 && c.Support >= minCount {
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no closed itemset with two items to split into confidence pairs")
	}
	return out, nil
}

// coldPool is serve-dense-cold's key space: baskets of 2–4 frequent
// items, many more distinct ones than the recommend cache's 8,192
// entries, so almost every recommend misses.
func coldPool(r *rand.Rand, ref *closedrules.QueryService, size int) (*keyPool, error) {
	items := frequentItems(ref, 0)
	multi, err := multiItemClosed(ref, 0)
	if err != nil {
		return nil, err
	}
	p := &keyPool{}
	seen := make(map[string]bool)
	for tries := 0; len(p.baskets) < size && tries < 20*size; tries++ {
		b := randomBasket(r, items, 2+r.Intn(3))
		if k := b.Key(); !seen[k] {
			seen[k] = true
			p.baskets = append(p.baskets, b)
		}
	}
	for len(p.pairs) < size {
		p.pairs = append(p.pairs, splitPair(r, multi))
	}
	return p, nil
}

// hotPool is the sparse workloads' key space: a few hundred hot keys,
// half baskets of 1–2 frequent items and half closed itemsets (answered
// by one lookup), queried with a Zipf skew. Keys have support at least
// minCount in ref.
func hotPool(r *rand.Rand, ref *closedrules.QueryService, size, minCount int) (*keyPool, error) {
	items := frequentItems(ref, minCount)
	var closed []closedrules.Itemset
	for _, c := range ref.ServedResult().ClosedItemsets() {
		// The closure of ∅ may be ∅, which no route accepts.
		if c.Items.Len() > 0 && c.Support >= minCount {
			closed = append(closed, c.Items)
		}
	}
	multi, err := multiItemClosed(ref, minCount)
	if err != nil {
		return nil, err
	}
	p := &keyPool{}
	for len(p.baskets) < size {
		if len(p.baskets)%2 == 0 {
			p.baskets = append(p.baskets, randomBasket(r, items, 1+r.Intn(2)))
		} else {
			p.baskets = append(p.baskets, closed[r.Intn(len(closed))])
		}
	}
	for len(p.pairs) < size {
		p.pairs = append(p.pairs, splitPair(r, multi))
	}
	return p, nil
}

// drawQueries samples n queries from the pool; pick chooses a key index.
func drawQueries(r *rand.Rand, p *keyPool, n int, pick func() int) []query {
	qs := make([]query, n)
	for i := range qs {
		q := query{kind: pickKind(r), tenant: r.Intn(2) == 1}
		if q.kind == kindConfidence {
			pr := p.pairs[pick()%len(p.pairs)]
			q.a, q.b = pr[0], pr[1]
		} else {
			q.a = p.baskets[pick()%len(p.baskets)]
		}
		qs[i] = q
	}
	return qs
}

// answer is the comparable content of a response, from the wire or
// from an in-process QueryService call.
type answer struct {
	Support    int          `json:"support"`
	Frequent   bool         `json:"frequent"`
	Confidence float64      `json:"confidence"`
	Rules      []ruleAnswer `json:"rules"`
}

type ruleAnswer struct {
	Antecedent        []int   `json:"antecedent"`
	Consequent        []int   `json:"consequent"`
	Support           int     `json:"support"`
	AntecedentSupport int     `json:"antecedentSupport"`
	ConsequentSupport int     `json:"consequentSupport"`
	Confidence        float64 `json:"confidence"`
	Lift              float64 `json:"lift"`
}

// ask answers q in-process and returns the time the call itself took.
func ask(ctx context.Context, qs *closedrules.QueryService, q query) (answer, time.Duration, error) {
	var a answer
	start := time.Now()
	switch q.kind {
	case kindSupport:
		sup, ok, err := qs.Support(ctx, q.a)
		if err != nil {
			return a, 0, err
		}
		a.Support, a.Frequent = sup, ok
	case kindConfidence:
		c, err := qs.Confidence(ctx, q.a, q.b)
		if err != nil {
			return a, 0, err
		}
		a.Confidence = c
	default:
		recs, n, err := qs.RecommendWithN(ctx, q.a, recommendK)
		if err != nil {
			return a, 0, err
		}
		dur := time.Since(start)
		for _, r := range recs {
			ra := ruleAnswer{
				Antecedent: append([]int{}, r.Antecedent...), Consequent: append([]int{}, r.Consequent...),
				Support: r.Support, AntecedentSupport: r.AntecedentSupport, ConsequentSupport: r.ConsequentSupport,
				Confidence: r.Confidence(),
			}
			if m, err := closedrules.RuleMetrics(r, n); err == nil {
				ra.Lift = m.Lift
			}
			a.Rules = append(a.Rules, ra)
		}
		return a, dur, nil
	}
	return a, time.Since(start), nil
}

// decodeAnswer parses a response body.
func decodeAnswer(body []byte) (answer, error) {
	var a answer
	err := json.Unmarshal(body, &a)
	return a, err
}

func sameAnswer(x, y answer) bool {
	if x.Support != y.Support || x.Frequent != y.Frequent || x.Confidence != y.Confidence || len(x.Rules) != len(y.Rules) {
		return false
	}
	for i := range x.Rules {
		a, b := x.Rules[i], y.Rules[i]
		if !sameInts(a.Antecedent, b.Antecedent) || !sameInts(a.Consequent, b.Consequent) ||
			a.Support != b.Support || a.AntecedentSupport != b.AntecedentSupport ||
			a.ConsequentSupport != b.ConsequentSupport || a.Confidence != b.Confidence || a.Lift != b.Lift {
			return false
		}
	}
	return true
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
