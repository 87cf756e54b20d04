package workload

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"memnet/internal/sim"
)

// Recorder wraps a Generator and keeps every transaction it hands out,
// so a synthetic run can be captured and replayed exactly (or exported
// for external analysis).
type Recorder struct {
	inner Generator
	txs   []Tx
}

// NewRecorder wraps gen.
func NewRecorder(gen Generator) *Recorder { return &Recorder{inner: gen} }

// Next implements Generator.
func (r *Recorder) Next() Tx {
	tx := r.inner.Next()
	r.txs = append(r.txs, tx)
	return tx
}

// Trace returns the recorded transactions (shared slice; copy before
// mutating).
func (r *Recorder) Trace() []Tx { return r.txs }

// Replay is a Generator that plays back a fixed transaction sequence,
// cycling when it runs out (so a short captured trace can still drive a
// long simulation).
type Replay struct {
	txs []Tx
	i   int
}

// NewReplay returns a generator over txs. It panics on an empty trace.
func NewReplay(txs []Tx) *Replay {
	if len(txs) == 0 {
		panic("workload: empty trace")
	}
	return &Replay{txs: txs}
}

// Next implements Generator.
func (r *Replay) Next() Tx {
	tx := r.txs[r.i]
	r.i++
	if r.i == len(r.txs) {
		r.i = 0
	}
	return tx
}

// WriteTrace serializes transactions as one CSV line each:
// addr_hex,kind,gap_ps[,rmw]. kind is R or W.
func WriteTrace(w io.Writer, txs []Tx) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "# memnet trace v1: addr_hex,kind,gap_ps[,rmw]"); err != nil {
		return err
	}
	for _, tx := range txs {
		kind := "R"
		if tx.Write {
			kind = "W"
		}
		line := fmt.Sprintf("%x,%s,%d", tx.Addr, kind, int64(tx.Gap))
		if tx.RMW {
			line += ",rmw"
		}
		if _, err := fmt.Fprintln(bw, line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTrace parses the WriteTrace format strictly: a line has three
// fields or a fourth that is exactly rmw, and anything else is a
// "trace line N" error rather than a silently different replay. Blank
// lines and lines starting with '#' are ignored.
func ReadTrace(r io.Reader) ([]Tx, error) {
	var txs []Tx
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, ",")
		if len(parts) < 3 || len(parts) > 4 {
			return nil, fmt.Errorf("workload: trace line %d: want addr,kind,gap[,rmw]", lineNo)
		}
		addr, err := strconv.ParseUint(strings.TrimSpace(parts[0]), 16, 64)
		if err != nil {
			return nil, fmt.Errorf("workload: trace line %d: bad address: %v", lineNo, err)
		}
		var write bool
		switch strings.TrimSpace(parts[1]) {
		case "R", "r":
		case "W", "w":
			write = true
		default:
			return nil, fmt.Errorf("workload: trace line %d: kind must be R or W", lineNo)
		}
		gap, err := strconv.ParseInt(strings.TrimSpace(parts[2]), 10, 64)
		if err != nil || gap < 0 {
			return nil, fmt.Errorf("workload: trace line %d: bad gap", lineNo)
		}
		tx := Tx{Addr: addr, Write: write, Gap: sim.Time(gap)}
		if len(parts) == 4 {
			if strings.TrimSpace(parts[3]) != "rmw" {
				return nil, fmt.Errorf("workload: trace line %d: fourth field must be rmw", lineNo)
			}
			tx.RMW = true
		}
		txs = append(txs, tx)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(txs) == 0 {
		return nil, fmt.Errorf("workload: empty trace")
	}
	return txs, nil
}
