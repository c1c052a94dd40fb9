package dataset

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"closedrules/internal/itemset"
)

// referenceReadDat is the line parser ReadDat had before it parsed the
// scanner's bytes in place: Scanner.Text, strings.TrimSpace,
// strings.Fields and strconv.Atoi per line, with itemset.Of
// normalizing each transaction and NumItems the largest item plus one.
// It shares no code with ReadDat, which must accept, reject and report
// every input exactly as it does.
func referenceReadDat(r io.Reader) (*Dataset, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	d := &Dataset{tx: []itemset.Itemset{}, ctxc: &ctxCache{}}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		t := make([]int, 0, len(fields))
		for _, f := range fields {
			x, err := strconv.Atoi(f)
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d: bad item %q: %v", lineNo, f, err)
			}
			if x < 0 {
				return nil, fmt.Errorf("dataset: line %d: negative item %d", lineNo, x)
			}
			t = append(t, x)
			if x+1 > d.numItems {
				d.numItems = x + 1
			}
		}
		d.tx = append(d.tx, itemset.Of(t...))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dataset: read: %v", err)
	}
	return d, nil
}

// sameAsReference fails t unless ReadDat and referenceReadDat agree on
// input: the same error text, or the same transactions and NumItems.
func sameAsReference(t *testing.T, input string) {
	t.Helper()
	got, gotErr := ReadDat(strings.NewReader(input))
	want, wantErr := referenceReadDat(strings.NewReader(input))
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%q: err = %v, reference err = %v", input, gotErr, wantErr)
	}
	if wantErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("%q: err = %q, reference %q", input, gotErr, wantErr)
		}
		return
	}
	if got.NumItems() != want.NumItems() {
		t.Fatalf("%q: NumItems = %d, reference %d", input, got.NumItems(), want.NumItems())
	}
	if !reflect.DeepEqual(got.Transactions(), want.Transactions()) {
		t.Fatalf("%q: transactions = %v, reference %v", input, got.Transactions(), want.Transactions())
	}
	for i, tx := range got.Transactions() {
		if len(tx) != cap(tx) {
			t.Fatalf("%q: transaction %d has len %d, cap %d; want an exact-size copy", input, i, len(tx), cap(tx))
		}
	}
	if n := len(got.Transactions()); cap(got.Transactions()) != n {
		t.Fatalf("%q: %d transactions held in cap %d", input, n, cap(got.Transactions()))
	}
}

func TestReadDatMatchesReference(t *testing.T) {
	for _, input := range []string{
		"",
		"\n\n\n",
		"0 2 3\n1 2 4\n0 1 2 4\n1 4\n0 1 2 4\n",
		"0\t2\t3\n1\t\t2",
		"0 2 3\r\n1 2 4\r\n\r\n",
		"1\r2\r\n",
		"\v1\f2\v\n\f\n",
		"   3 1   \n\t 4 \t\n  \n\t\n",
		"# header\n1 2\n   # indented comment\n\t#tab comment\n3\n",
		"1 2 # trailing\n",
		"1 #\n",
		"#\n#1 2\n",
		"+7 007 7 3 3 1\n",
		"5 4 3 2 1 1 2\n",
		"-0 +0 0\n",
		"1 2\n",
		"1 2 \n",
		"1\u00852\n",
		"  \u0085\n",
		" # comment after NBSP\n",
		"  1 2  \n3\n",
		"1 x 2\n",
		"1 2\n3 -4\n",
		"1 -0x1\n",
		"0x10\n",
		"1_000\n",
		"1e3\n",
		"+\n",
		"-\n",
		"++1\n",
		"1+\n",
		"١\n",
		"1 \xff 2\n",
		"99999999999999999999\n",
		"9223372036854775808\n",
		"-9223372036854775809\n",
		"1000000000000000000 1\n",
		"123456789012345678\n",
		"1 2\n\n3 x\n4 -5\n",
	} {
		sameAsReference(t, input)
	}

	r := rand.New(rand.NewSource(30))
	clean := []string{" ", " ", "\t", "\v", "\f", "\r", "0", "1", "2", "7", "9", "00", "+", " ", " ", "\u0085"}
	dirty := append(clean, "-", "#", "x", "\xff", "99999999999999999999")
	for iter := 0; iter < 2000; iter++ {
		alphabet := clean
		if iter%4 == 0 {
			alphabet = dirty
		}
		var sb strings.Builder
		for line, lines := 0, r.Intn(6); line < lines; line++ {
			for k, n := 0, r.Intn(12); k < n; k++ {
				tok := alphabet[r.Intn(len(alphabet))]
				if tok == "+" || tok == "-" {
					tok += strconv.Itoa(r.Intn(40))
				}
				sb.WriteString(tok)
			}
			sb.WriteByte('\n')
		}
		sameAsReference(t, sb.String())
	}
}

// TestReadDatAllocsPerLine bounds the parse at one allocation per
// transaction — its exact-size itemset — plus a constant for the
// scanner, the transaction list and the dataset.
func TestReadDatAllocsPerLine(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	const lines = 1000
	var sb strings.Builder
	for i := 0; i < lines; i++ {
		for k, n := 0, 1+r.Intn(30); k < n; k++ {
			if k > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(strconv.Itoa(r.Intn(500)))
		}
		sb.WriteByte('\n')
	}
	input := sb.String()
	n := testing.AllocsPerRun(5, func() {
		if _, err := ReadDat(strings.NewReader(input)); err != nil {
			t.Fatal(err)
		}
	})
	if n > lines+32 {
		t.Fatalf("%v allocs for %d lines, want ≤ %d", n, lines, lines+32)
	}
}
