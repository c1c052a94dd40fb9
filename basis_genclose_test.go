package closedrules

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBasisGoldenFilesGenClose proves the one-pass generator path
// reproduces the two-pass answers exactly: every golden fixture —
// including the generator-requiring duquenne-guigues, generic and
// informative bases — built from a genclose-mined result must be
// byte-identical to the pinned golden files.
func TestBasisGoldenFilesGenClose(t *testing.T) {
	d := namedClassic(t)
	for _, algo := range []string{"genclose", "pgenclose"} {
		res, err := MineContext(context.Background(), d, WithMinSupport(0.4), WithAlgorithm(algo))
		if err != nil {
			t.Fatal(err)
		}
		if !res.HasGenerators() {
			t.Fatalf("%s: HasGenerators() = false", algo)
		}
		for _, tc := range goldenBasisCases {
			rs, err := res.Basis(context.Background(), tc.name, tc.opts...)
			if err != nil {
				t.Fatalf("%s/%s: %v", algo, tc.file, err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", "basis", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			if got := FormatRules(rs.Rules, d); got != string(want) {
				t.Errorf("%s/%s: one-pass basis diverged from golden file:\ngot:\n%swant:\n%s",
					algo, tc.file, got, want)
			}
		}
	}
}

// TestBasisGeneratorResolution covers the opt-in auto-resolve: a
// generator-requiring basis on a generator-less (charm) result
// succeeds under WithGeneratorResolution — with output byte-identical
// to the golden files — and keeps failing without it.
func TestBasisGeneratorResolution(t *testing.T) {
	d := namedClassic(t)
	res, err := MineContext(context.Background(), d, WithMinSupport(0.4), WithAlgorithm("charm"))
	if err != nil {
		t.Fatal(err)
	}
	if res.HasGenerators() {
		t.Fatal("charm result claims generators")
	}
	ctx := context.Background()
	for _, tc := range goldenBasisCases {
		if tc.name != "generic" && tc.name != "informative" {
			continue
		}
		opts := append([]BasisOption{WithGeneratorResolution()}, tc.opts...)
		rs, err := res.Basis(ctx, tc.name, opts...)
		if err != nil {
			t.Fatalf("%s with resolution: %v", tc.file, err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", "basis", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		if got := FormatRules(rs.Rules, d); got != string(want) {
			t.Errorf("%s: resolved basis diverged from golden file:\ngot:\n%swant:\n%s",
				tc.file, got, want)
		}
	}
	// The re-mine is memoized once on the Result.
	res.genMu.Lock()
	resolved := res.genFC != nil
	res.genMu.Unlock()
	if !resolved {
		t.Error("generator re-mine not memoized on the Result")
	}
	// Without the opt-in the explicit error is preserved, and it now
	// points at both escape hatches.
	_, err = res.Basis(ctx, "generic")
	if err == nil {
		t.Fatal("generic basis accepted without generators or resolution")
	}
	for _, want := range []string{"generators", "charm", "genclose", "WithGeneratorResolution"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("requirement error missing %q: %v", want, err)
		}
	}
}

// TestBasisGeneratorResolutionCancelled asserts a failed resolution is
// not cached: a cancelled re-mine surfaces the context error, and a
// later build with a live context succeeds.
func TestBasisGeneratorResolutionCancelled(t *testing.T) {
	res, err := MineContext(context.Background(), classic(t), WithMinSupport(0.4), WithAlgorithm("charm"))
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := res.Basis(cancelled, "generic", WithGeneratorResolution()); err == nil {
		t.Fatal("cancelled resolution reported success")
	}
	if _, err := res.Basis(context.Background(), "generic", WithGeneratorResolution()); err != nil {
		t.Fatalf("retry after cancellation: %v", err)
	}
}
