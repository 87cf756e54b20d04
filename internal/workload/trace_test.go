package workload

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"memnet/internal/sim"
)

func TestRecorderCaptures(t *testing.T) {
	spec, _ := ByName("DCT")
	rec := NewRecorder(New(spec, footprint, 1))
	want := make([]Tx, 100)
	for i := range want {
		want[i] = rec.Next()
	}
	got := rec.Trace()
	if len(got) != 100 {
		t.Fatalf("recorded %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("trace[%d] mismatch", i)
		}
	}
}

func TestReplayCycles(t *testing.T) {
	txs := []Tx{
		{Addr: 0, Write: false, Gap: 1},
		{Addr: 64, Write: true, Gap: 2},
	}
	r := NewReplay(txs)
	for round := 0; round < 3; round++ {
		for i := range txs {
			if got := r.Next(); got != txs[i] {
				t.Fatalf("round %d item %d mismatch", round, i)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("empty replay must panic")
		}
	}()
	NewReplay(nil)
}

func TestTraceRoundTrip(t *testing.T) {
	spec, _ := ByName("BIT") // includes RMW pairs
	rec := NewRecorder(New(spec, footprint, 5))
	for i := 0; i < 500; i++ {
		rec.Next()
	}
	var buf strings.Builder
	if err := WriteTrace(&buf, rec.Trace()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 500 {
		t.Fatalf("read %d", len(got))
	}
	for i, tx := range rec.Trace() {
		if got[i] != tx {
			t.Fatalf("tx %d: %+v != %+v", i, got[i], tx)
		}
	}
}

func TestReadTraceErrors(t *testing.T) {
	cases := []string{
		"",                // empty
		"zz,R,10",         // bad address
		"40,X,10",         // bad kind
		"40,R,notanumber", // bad gap
		"40,R,-5",         // negative gap
		"40",              // short line
		"40,R,1000,bogus", // unknown fourth field
		"40,R,1000,",      // empty fourth field
		"40,W,10,rmw,x",   // fifth field
	}
	for _, c := range cases {
		if _, err := ReadTrace(strings.NewReader(c)); err == nil {
			t.Errorf("trace %q should fail", c)
		}
	}
	// Comments and blanks are fine.
	txs, err := ReadTrace(strings.NewReader("# header\n\n40,W,100,rmw\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(txs) != 1 || !txs[0].Write || !txs[0].RMW || txs[0].Gap != 100*sim.Picosecond {
		t.Fatalf("parsed %+v", txs)
	}
}

// FuzzReadTrace: any input either fails to decode with an error, or
// decodes to a trace that survives WriteTrace -> ReadTrace unchanged.
// ReadTrace never panics. The seed corpus is in testdata/fuzz.
func FuzzReadTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		txs, err := ReadTrace(bytes.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, txs); err != nil {
			t.Fatal(err)
		}
		again, err := ReadTrace(&buf)
		if err != nil {
			t.Fatalf("re-read of a written trace failed: %v\n%s", err, buf.String())
		}
		if !reflect.DeepEqual(again, txs) {
			t.Fatalf("round trip changed the trace:\n got  %+v\n want %+v", again, txs)
		}
	})
}
