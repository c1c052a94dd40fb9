package refresh

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"closedrules"
)

// appendFile appends text to the watched file.
func appendFile(t *testing.T, path, text string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(text); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFileSourceDeltas walks the append/rewrite classification matrix
// of the delta protocol.
func TestFileSourceDeltas(t *testing.T) {
	ctx := context.Background()
	path := writeClassic(t)
	src := NewFileSource(path)

	// Uncommitted: never an append (there is no epoch to append to).
	if _, ok, err := src.Deltas(ctx); ok || err != nil {
		t.Fatalf("Deltas before commit = ok=%v err=%v, want false, nil", ok, err)
	}
	if _, err := src.Load(ctx); err != nil {
		t.Fatal(err)
	}
	src.Commit()

	// Pure append: exactly the tail comes back.
	appendFile(t, path, "0 1 2 4\n1 2\n")
	if ch, err := src.Changed(ctx); err != nil || !ch {
		t.Fatalf("Changed after append = %v, %v", ch, err)
	}
	tail, ok, err := src.Deltas(ctx)
	if err != nil || !ok {
		t.Fatalf("Deltas after append = ok=%v err=%v, want true, nil", ok, err)
	}
	if tail.NumTransactions() != 2 {
		t.Fatalf("delta has %d transactions, want 2", tail.NumTransactions())
	}
	if got := tail.Transaction(1); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("delta[1] = %v, want [1 2]", got)
	}
	src.Commit() // (base + delta) now served

	// The next append's delta starts after the previous one.
	appendFile(t, path, "2 3\n")
	if ch, _ := src.Changed(ctx); !ch {
		t.Fatal("Changed after second append = false")
	}
	tail, ok, err = src.Deltas(ctx)
	if err != nil || !ok || tail.NumTransactions() != 1 {
		t.Fatalf("second Deltas = %d tx, ok=%v, err=%v; want 1, true, nil", tail.NumTransactions(), ok, err)
	}
	src.Commit()

	// A rewrite is not an append, and the staged bytes still feed Load.
	if err := os.WriteFile(path, []byte("0 1\n2 3\n4 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if ch, _ := src.Changed(ctx); !ch {
		t.Fatal("Changed after rewrite = false")
	}
	if _, ok, err := src.Deltas(ctx); ok || err != nil {
		t.Fatalf("Deltas after rewrite = ok=%v err=%v, want false, nil", ok, err)
	}
	d, err := src.Load(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumTransactions() != 3 {
		t.Fatalf("Load after rewrite = %d tx, want 3", d.NumTransactions())
	}
	src.Commit()

	// Truncation is not an append.
	if err := os.WriteFile(path, []byte("0 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := src.Deltas(ctx); ok {
		t.Fatal("Deltas after truncation = true")
	}
}

// TestFileSourceDeltasMidLineEdit: content that extends the final
// unterminated line mutates that transaction — an edit, not an append.
func TestFileSourceDeltasMidLineEdit(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "midline.dat")
	if err := os.WriteFile(path, []byte("0 1\n2 3"), 0o644); err != nil { // no trailing newline
		t.Fatal(err)
	}
	src := NewFileSource(path)
	if _, err := src.Load(ctx); err != nil {
		t.Fatal(err)
	}
	src.Commit()
	appendFile(t, path, " 4\n") // "2 3" became "2 3 4"
	if ch, _ := src.Changed(ctx); !ch {
		t.Fatal("Changed after mid-line edit = false")
	}
	if _, ok, _ := src.Deltas(ctx); ok {
		t.Fatal("mid-line edit classified as pure append")
	}
	// But a newline-led continuation after an unterminated final line
	// keeps that line's transaction intact: it is a pure append.
	d, err := src.Load(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumTransactions() != 2 {
		t.Fatal("unexpected parse")
	}
	src.Commit()
	appendFile(t, path, "\n5 6\n")
	tail, ok, err := src.Deltas(ctx)
	if err != nil || !ok || tail.NumTransactions() != 1 {
		t.Fatalf("newline-led append = %v tx, ok=%v, err=%v; want 1, true, nil", tail.NumTransactions(), ok, err)
	}
}

// TestTableFileSourceDeltas: table-mode appends may introduce new
// (column, value) items; the delta must arrive in the grown universe
// with first-occurrence numbering intact.
func TestTableFileSourceDeltas(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "t.csv")
	if err := os.WriteFile(path, []byte("color,size\nred,big\nblue,small\nred,small\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src := NewTableFileSource(path, ',', true)
	d, err := src.Load(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumItems() != 4 {
		t.Fatalf("base universe = %d items, want 4", d.NumItems())
	}
	src.Commit()
	appendFile(t, path, "green,big\nred,tiny\n")
	tail, ok, err := src.Deltas(ctx)
	if err != nil || !ok {
		t.Fatalf("table Deltas = ok=%v err=%v", ok, err)
	}
	if tail.NumTransactions() != 2 || tail.NumItems() != 6 {
		t.Fatalf("table delta = %d tx over %d items, want 2 over 6", tail.NumTransactions(), tail.NumItems())
	}
	if name := tail.ItemName(4); name != "color=green" {
		t.Fatalf("new item 4 named %q, want color=green", name)
	}
}

// TestIncrementalCycle drives one polled cycle over an appended file
// and checks the incremental path handled it end to end.
func TestIncrementalCycle(t *testing.T) {
	qs := classicService(t)
	ctx := context.Background()
	path := writeClassic(t)
	src := NewFileSource(path)
	if _, err := src.Load(ctx); err != nil {
		t.Fatal(err)
	}
	src.Commit()
	r, err := New(qs, Config{Source: src, MineOptions: mineOpts()})
	if err != nil {
		t.Fatal(err)
	}

	appendFile(t, path, "0 1 2 4\n")
	if err := r.cycle(ctx, false); err != nil {
		t.Fatalf("cycle over append: %v", err)
	}
	st := r.Stats()
	if st.IncrementalSuccesses != 1 || st.Successes != 1 || st.DeltaTransactions != 1 {
		t.Fatalf("after append cycle: %+v", st)
	}
	if st.LastIncrementalDuration <= 0 || st.LastMineDuration != st.LastIncrementalDuration {
		t.Fatalf("incremental durations not recorded: %+v", st)
	}
	if qs.NumTransactions() != 6 {
		t.Fatalf("serving %d transactions, want 6", qs.NumTransactions())
	}
	if got := qs.ServedResult().MinerName(); got != "incremental" {
		t.Fatalf("served miner = %q, want incremental", got)
	}

	// A rewrite takes the full path; incremental counters stay put.
	if err := os.WriteFile(path, []byte(classicDat), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := r.cycle(ctx, false); err != nil {
		t.Fatalf("cycle over rewrite: %v", err)
	}
	st = r.Stats()
	if st.IncrementalSuccesses != 1 || st.Successes != 2 || st.IncrementalFallbacks != 0 {
		t.Fatalf("after rewrite cycle: %+v", st)
	}
	if got := qs.ServedResult().MinerName(); got == "incremental" {
		t.Fatal("rewrite cycle served an incremental result")
	}
}

// TestIncrementalForcedRefreshRemines: the /admin/reload path keeps
// its unconditional full re-mine even for a pure append.
func TestIncrementalForcedRefreshRemines(t *testing.T) {
	qs := classicService(t)
	ctx := context.Background()
	path := writeClassic(t)
	src := NewFileSource(path)
	if _, err := src.Load(ctx); err != nil {
		t.Fatal(err)
	}
	src.Commit()
	r, err := New(qs, Config{Source: src, MineOptions: mineOpts()})
	if err != nil {
		t.Fatal(err)
	}
	appendFile(t, path, "0 1 2 4\n")
	if err := r.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.IncrementalSuccesses != 0 || st.Successes != 1 {
		t.Fatalf("forced refresh used the incremental path: %+v", st)
	}
}

// TestIncrementalOversizedBatchFallsBack: a batch above the crossover
// ratio re-mines in full and counts a fallback.
func TestIncrementalOversizedBatchFallsBack(t *testing.T) {
	qs := classicService(t)
	ctx := context.Background()
	path := writeClassic(t)
	src := NewFileSource(path)
	if _, err := src.Load(ctx); err != nil {
		t.Fatal(err)
	}
	src.Commit()
	r, err := New(qs, Config{Source: src, MineOptions: mineOpts(), IncrementalMaxRatio: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	appendFile(t, path, "0 1 2 4\n1 2 4\n") // 2 of 5 = 40% > 30%
	if err := r.cycle(ctx, false); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.IncrementalSuccesses != 0 || st.IncrementalFallbacks != 1 || st.Successes != 1 {
		t.Fatalf("oversized batch: %+v", st)
	}
	if qs.NumTransactions() != 7 {
		t.Fatalf("serving %d transactions, want 7", qs.NumTransactions())
	}
}

// TestIncrementalDisabled: the kill switch forces the full path.
func TestIncrementalDisabled(t *testing.T) {
	qs := classicService(t)
	ctx := context.Background()
	path := writeClassic(t)
	src := NewFileSource(path)
	if _, err := src.Load(ctx); err != nil {
		t.Fatal(err)
	}
	src.Commit()
	r, err := New(qs, Config{Source: src, MineOptions: mineOpts(), DisableIncremental: true})
	if err != nil {
		t.Fatal(err)
	}
	appendFile(t, path, "0 1 2 4\n")
	if err := r.cycle(ctx, false); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.IncrementalSuccesses != 0 || st.Successes != 1 {
		t.Fatalf("DisableIncremental ignored: %+v", st)
	}
}

// TestIncrementalGeneratorBasisGate: a service whose bases need
// minimal generators (generic/informative) must keep re-mining in
// full — incremental results cannot maintain generators.
func TestIncrementalGeneratorBasisGate(t *testing.T) {
	ctx := context.Background()
	ds, err := closedrules.NewDataset([][]int{
		{0, 2, 3}, {1, 2, 4}, {0, 1, 2, 4}, {1, 4}, {0, 1, 2, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := closedrules.MineContext(ctx, ds, closedrules.WithMinSupport(0.4))
	if err != nil {
		t.Fatal(err)
	}
	qs, err := closedrules.NewQueryServiceWithBases(res, 0.5, closedrules.BasisSelection{
		Exact: "generic", Approximate: "luxenburger",
	})
	if err != nil {
		t.Fatal(err)
	}
	path := writeClassic(t)
	src := NewFileSource(path)
	if _, err := src.Load(ctx); err != nil {
		t.Fatal(err)
	}
	src.Commit()
	r, err := New(qs, Config{Source: src, MineOptions: mineOpts()})
	if err != nil {
		t.Fatal(err)
	}
	appendFile(t, path, "0 1 2 4\n")
	if err := r.cycle(ctx, false); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.IncrementalSuccesses != 0 || st.Successes != 1 {
		t.Fatalf("generator-basis service took the incremental path: %+v", st)
	}
	if qs.NumTransactions() != 6 {
		t.Fatalf("serving %d transactions, want 6", qs.NumTransactions())
	}
}

// TestIncrementalLoadedResultRemines: a service over a Result read by
// LoadResult has no transactions to extend, so its first polled cycle
// over an append re-mines in full and swaps in the mined result.
func TestIncrementalLoadedResultRemines(t *testing.T) {
	ctx := context.Background()
	var saved strings.Builder
	if err := classicService(t).ServedResult().SaveClosedItemsets(&saved); err != nil {
		t.Fatal(err)
	}
	loaded, err := closedrules.LoadResult(strings.NewReader(saved.String()))
	if err != nil {
		t.Fatal(err)
	}
	qs, err := closedrules.NewQueryService(loaded, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	path := writeClassic(t)
	src := NewFileSource(path)
	if _, err := src.Load(ctx); err != nil {
		t.Fatal(err)
	}
	src.Commit()
	r, err := New(qs, Config{Source: src, MineOptions: mineOpts()})
	if err != nil {
		t.Fatal(err)
	}
	appendFile(t, path, "0 1 2 4\n")
	if err := r.cycle(ctx, false); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.IncrementalSuccesses != 0 || st.IncrementalFallbacks != 1 || st.Successes != 1 {
		t.Fatalf("loaded-result service: %+v", st)
	}
	if qs.NumTransactions() != 6 {
		t.Fatalf("serving %d transactions, want 6", qs.NumTransactions())
	}
	if got := qs.ServedResult().MinerName(); got == "loaded" || got == "incremental" {
		t.Fatalf("served miner = %q, want a full mine", got)
	}
}

// TestIncrementalCommentOnlyAppendSkips: an append that parses to zero
// new transactions commits the new epoch and records a skip.
func TestIncrementalCommentOnlyAppendSkips(t *testing.T) {
	qs := classicService(t)
	ctx := context.Background()
	path := writeClassic(t)
	src := NewFileSource(path)
	if _, err := src.Load(ctx); err != nil {
		t.Fatal(err)
	}
	src.Commit()
	r, err := New(qs, Config{Source: src, MineOptions: mineOpts()})
	if err != nil {
		t.Fatal(err)
	}
	appendFile(t, path, "# a comment\n\n")
	if err := r.cycle(ctx, false); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Skips != 1 || st.Successes != 0 {
		t.Fatalf("comment-only append: %+v", st)
	}
	// The epoch moved: the next poll is a cheap skip, not a re-probe.
	if ch, err := src.Changed(ctx); err != nil || ch {
		t.Fatalf("Changed after comment-only commit = %v, %v; want false", ch, err)
	}
}

// TestIncrementalLiveAppendUnderConcurrentReads is the end-to-end
// property check: 10 random append schedules against a polling
// refresher with the incremental path active, hammered by concurrent
// readers (-race), with zero failed requests; after each schedule the
// served snapshot must be byte-identical — closed sets, supports, and
// rendered bases — to a full re-mine of the final file.
func TestIncrementalLiveAppendUnderConcurrentReads(t *testing.T) {
	ctx := context.Background()
	for seed := 0; seed < 10; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("schedule%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(seed)*2741 + 5))
			line := func() string {
				var items []string
				for x := 0; x < 6; x++ {
					if r.Float64() < 0.45 {
						items = append(items, fmt.Sprint(x))
					}
				}
				if len(items) == 0 {
					items = []string{"0"}
				}
				return strings.Join(items, " ") + "\n"
			}
			var sb strings.Builder
			base := 30 + r.Intn(20)
			for i := 0; i < base; i++ {
				sb.WriteString(line())
			}
			path := filepath.Join(t.TempDir(), "live.dat")
			if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
				t.Fatal(err)
			}

			opts := []closedrules.MineOption{closedrules.WithMinSupport(0.25)}
			src := NewFileSource(path)
			d, err := src.Load(ctx)
			if err != nil {
				t.Fatal(err)
			}
			res, err := closedrules.MineContext(ctx, d, opts...)
			if err != nil {
				t.Fatal(err)
			}
			qs, err := closedrules.NewQueryService(res, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			src.Commit()
			ref, err := New(qs, Config{Source: src, Interval: time.Millisecond, MineOptions: opts})
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.Start(); err != nil {
				t.Fatal(err)
			}
			defer ref.Stop()

			var wg sync.WaitGroup
			errc := make(chan error, 16)
			stop := make(chan struct{})
			for i := 0; i < 4; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						if _, _, err := qs.Support(ctx, closedrules.Items(i%6)); err != nil {
							errc <- fmt.Errorf("Support: %w", err)
							return
						}
						if _, err := qs.Recommend(ctx, closedrules.Items(i%6), 3); err != nil {
							errc <- fmt.Errorf("Recommend: %w", err)
							return
						}
					}
				}(i)
			}

			total := base
			for b := 0; b < 3; b++ {
				batch := 1 + r.Intn(4) // ≤ ~13% of base: stays incremental
				var ap strings.Builder
				for i := 0; i < batch; i++ {
					ap.WriteString(line())
				}
				appendFile(t, path, ap.String())
				total += batch
				want := total
				waitFor(t, 10*time.Second, func() bool { return qs.NumTransactions() == want },
					fmt.Sprintf("swap of batch %d", b))
			}
			close(stop)
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Errorf("query failed during live append: %v", err)
			}
			st := ref.Stats()
			if st.Failures != 0 {
				t.Fatalf("refresher failures: %+v", st)
			}
			if st.IncrementalSuccesses < 1 {
				t.Fatalf("no incremental cycles ran: %+v", st)
			}

			// Byte-for-byte equivalence with a full re-mine of the file.
			finalD, err := closedrules.ReadDatFile(path)
			if err != nil {
				t.Fatal(err)
			}
			full, err := closedrules.MineContext(ctx, finalD, opts...)
			if err != nil {
				t.Fatal(err)
			}
			served := qs.ServedResult()
			gotFC, wantFC := served.ClosedItemsets(), full.ClosedItemsets()
			if len(gotFC) != len(wantFC) {
				t.Fatalf("|FC| served %d != full %d", len(gotFC), len(wantFC))
			}
			for i := range wantFC {
				if !gotFC[i].Items.Equal(wantFC[i].Items) || gotFC[i].Support != wantFC[i].Support {
					t.Fatalf("FC[%d]: served %v/%d, full %v/%d",
						i, gotFC[i].Items, gotFC[i].Support, wantFC[i].Items, wantFC[i].Support)
				}
			}
			for _, name := range []string{"duquenne-guigues", "luxenburger"} {
				g, err := served.Basis(ctx, name, closedrules.WithMinConfidence(0.5))
				if err != nil {
					t.Fatalf("served %s: %v", name, err)
				}
				w, err := full.Basis(ctx, name, closedrules.WithMinConfidence(0.5))
				if err != nil {
					t.Fatalf("full %s: %v", name, err)
				}
				if gs, ws := closedrules.FormatRules(g.Rules, served.Dataset()), closedrules.FormatRules(w.Rules, full.Dataset()); gs != ws {
					t.Fatalf("%s basis differs\nserved:\n%s\nfull:\n%s", name, gs, ws)
				}
			}
		})
	}
}
