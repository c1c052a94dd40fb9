package dataset

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"closedrules/internal/itemset"
)

// ReadDat parses the FIMI ".dat" basket format: one transaction per
// line, whitespace-separated non-negative integer item ids. Blank lines
// are skipped. Lines starting with '#' are treated as comments.
//
// Each line is parsed from the scanner's bytes into one reused buffer,
// and the only copy kept is the transaction itself, sorted,
// deduplicated and exactly sized. Items are separated by the runes
// unicode.IsSpace accepts, so Unicode spaces separate them too.
func ReadDat(r io.Reader) (*Dataset, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	d := &Dataset{ctxc: &ctxCache{}}
	var (
		buf []int
		err error
	)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		if buf, err = parseLine(sc.Bytes(), lineNo, buf[:0]); err != nil {
			return nil, err
		}
		if len(buf) > 0 { // else a blank or comment line
			d.appendTx(buf)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dataset: read: %v", err)
	}
	// The list grew by doubling; the dataset keeps it at its exact length.
	d.tx = append(make([]itemset.Itemset, 0, len(d.tx)), d.tx...)
	return d, nil
}

// parseLine appends the items of one line to buf; a blank line, or one
// whose first non-space byte is '#', appends none.
func parseLine(line []byte, lineNo int, buf []int) ([]int, error) {
	first := true
	for i := 0; i < len(line); {
		if w := spaceAt(line, i); w > 0 {
			i += w
			continue
		}
		if first && line[i] == '#' {
			return buf, nil
		}
		first = false
		j := i + 1
		for j < len(line) && spaceAt(line, j) == 0 {
			j++
		}
		x, err := strconv.Atoi(string(line[i:j]))
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d: bad item %q: %v", lineNo, line[i:j], err)
		}
		if x < 0 {
			return nil, fmt.Errorf("dataset: line %d: negative item %d", lineNo, x)
		}
		buf = append(buf, x)
		i = j
	}
	return buf, nil
}

// spaceAt returns the width of the space that starts at line[i], or 0
// if none does. Spaces are the runes unicode.IsSpace accepts, the ones
// strings.TrimSpace and strings.Fields split on; a rune is decoded only
// at a byte ≥ 0x80, and an invalid byte decodes to utf8.RuneError,
// which is not a space.
func spaceAt(line []byte, i int) int {
	if c := line[i]; c < utf8.RuneSelf {
		return int(asciiSpace[c])
	}
	return runeSpace(line[i:])
}

// runeSpace is spaceAt for a line tail that starts at a byte ≥ 0x80.
func runeSpace(tail []byte) int {
	if r, w := utf8.DecodeRune(tail); unicode.IsSpace(r) {
		return w
	}
	return 0
}

// asciiSpace marks the bytes below 0x80 that unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]uint8{'\t': 1, '\n': 1, '\v': 1, '\f': 1, '\r': 1, ' ': 1}

// ReadDatFile reads a .dat file from disk.
func ReadDatFile(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadDat(f)
}

// WriteDat writes the dataset in the FIMI ".dat" format.
func WriteDat(w io.Writer, d *Dataset) error {
	bw := bufio.NewWriter(w)
	for _, t := range d.Transactions() {
		for i, x := range t {
			if i > 0 {
				if err := bw.WriteByte(' '); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(strconv.Itoa(x)); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteDatFile writes a .dat file to disk.
func WriteDatFile(path string, d *Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteDat(f, d); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadTable parses a delimiter-separated nominal table (such as the UCI
// mushroom file or a census extract): every row is one object and every
// column an attribute; each distinct (column, value) pair becomes one
// item named "<header>=<value>". If hasHeader is false, columns are
// named c0, c1, …. Missing values ("?" or empty) produce no item.
func ReadTable(r io.Reader, sep rune, hasHeader bool) (*Dataset, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	var headers []string
	ids := map[string]int{}
	var names []string
	var raw [][]int
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimRight(sc.Text(), "\r\n")
		if strings.TrimSpace(line) == "" {
			continue
		}
		fields := strings.Split(line, string(sep))
		if headers == nil {
			if hasHeader {
				headers = make([]string, len(fields))
				for i, h := range fields {
					headers[i] = strings.TrimSpace(h)
				}
				continue
			}
			headers = make([]string, len(fields))
			for i := range fields {
				headers[i] = fmt.Sprintf("c%d", i)
			}
		}
		if len(fields) != len(headers) {
			return nil, fmt.Errorf("dataset: line %d: %d fields, want %d", lineNo, len(fields), len(headers))
		}
		t := make([]int, 0, len(fields))
		for i, f := range fields {
			v := strings.TrimSpace(f)
			if v == "" || v == "?" {
				continue
			}
			key := headers[i] + "=" + v
			id, ok := ids[key]
			if !ok {
				id = len(names)
				ids[key] = id
				names = append(names, key)
			}
			t = append(t, id)
		}
		raw = append(raw, t)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dataset: read: %v", err)
	}
	d, err := FromTransactions(raw)
	if err != nil {
		return nil, err
	}
	if d.numItems < len(names) {
		d.numItems = len(names)
	}
	return d.WithNames(names)
}

// ReadTableFile reads a nominal table from disk.
func ReadTableFile(path string, sep rune, hasHeader bool) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadTable(f, sep, hasHeader)
}

// WriteSupports writes "item support" lines sorted by descending
// support, a quick diagnostic view of a dataset.
func WriteSupports(w io.Writer, d *Dataset) error {
	sup := d.ItemSupports()
	order := make([]int, len(sup))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if sup[order[a]] != sup[order[b]] {
			return sup[order[a]] > sup[order[b]]
		}
		return order[a] < order[b]
	})
	bw := bufio.NewWriter(w)
	for _, it := range order {
		if _, err := fmt.Fprintf(bw, "%s\t%d\n", d.ItemName(it), sup[it]); err != nil {
			return err
		}
	}
	return bw.Flush()
}
