package host

import (
	"fmt"
	"slices"
	"testing"

	"memnet/internal/sim"
	"memnet/internal/stats"
	"memnet/internal/workload"
)

// tableModel is the map-based coherence and wavefront state the port's
// fixed tables replace: per-block pending write counts with the reads
// parked behind each block, the ready queue, and the wavefront of every
// in-flight read with each open wavefront's outstanding and injected
// members.
type tableModel struct {
	pending map[uint64]int
	parked  map[uint64][]parked
	ready   []parked
	wfOf    map[uint64]uint64
	wfLeft  map[uint64]int
	wfSize  map[uint64]int
	wfNext  uint64
	wfFill  int
}

// collidingKeys returns n keys, each a multiple of step, whose probe
// sequences in a table of slots slots start at slot 0 or 1, so that
// they crowd one probe run.
func collidingKeys(slots, n int, step uint64) []uint64 {
	var t table
	t.init(make([]slot, slots), 1)
	var keys []uint64
	for k := uint64(0); len(keys) < n; k += step {
		if t.home(k) <= 1 {
			keys = append(keys, k)
		}
	}
	return keys
}

// FuzzHostTables drives a port's coherence table, stalled reads and
// wavefront tables through the port's own operations beside tableModel,
// within the window bound the port keeps: writes injected and
// acknowledged, reads parked behind blocks and released, ready reads
// popped, and wavefront reads injected and completed. Blocks and packet
// IDs come from pools of keys whose probe sequences collide. After
// every operation each table must hold exactly the model's keys and
// values, each block's stalled reads must be the model's in order, and
// the ready queue must equal the model's.
//
// The first byte picks the window (1 to 8) and the wavefront size (2 to
// 5); each following pair of bytes is an operation and its argument.
// The corpus in testdata/fuzz/FuzzHostTables holds a write burst to one
// block with reads parked behind it, a wavefront whose first member
// returns last, and a window of writes to colliding blocks churned.
func FuzzHostTables(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		window := 1 + int(data[0]&7)
		g := 2 + int(data[0]>>3&3)
		p := New(sim.NewEngine(), Config{MaxOutstanding: window, Target: 1, WavefrontSize: g},
			&scripted{}, Wiring{}, stats.NewCollector(false))
		m := tableModel{
			pending: map[uint64]int{},
			parked:  map[uint64][]parked{},
			wfOf:    map[uint64]uint64{},
			wfLeft:  map[uint64]int{},
			wfSize:  map[uint64]int{},
		}
		slots := tableSlots(window)
		blocks := collidingKeys(slots, 2*window+1, 64)
		ids := collidingKeys(slots, 64, 1)[1:] // packet IDs start at 1
		var (
			writes   int      // pending writes, each holding a window slot
			reads    []uint64 // in-flight wavefront reads, by packet ID
			nextID   int
			arrivals sim.Time
		)
		for i := 1; i+1 < len(data); i += 2 {
			op, arg := data[i]%6, int(data[i+1])
			switch op {
			case 0: // inject a write
				if writes+len(reads) == window {
					continue
				}
				blk := blocks[arg%len(blocks)]
				*p.writes.ref(blk)++
				m.pending[blk]++
				writes++
			case 1: // acknowledge a pending write
				if writes == 0 {
					continue
				}
				keys := sortedKeys(m.pending)
				blk := keys[arg%len(keys)]
				p.releaseWrite(blk)
				writes--
				if m.pending[blk]--; m.pending[blk] == 0 {
					delete(m.pending, blk)
					m.ready = append(m.ready, m.parked[blk]...)
					delete(m.parked, blk)
				}
			case 2: // a read arrives; it parks behind its block's writes
				blk := blocks[arg%len(blocks)]
				if m.pending[blk] == 0 {
					continue
				}
				arrivals++
				r := parked{tx: workload.Tx{Addr: blk + uint64(arrivals)%64}, arrive: arrivals}
				if p.writes.get(blk) > 0 {
					p.stalled = append(p.stalled, r)
				}
				m.parked[blk] = append(m.parked[blk], r)
			case 3: // pump injects the oldest ready read
				if len(m.ready) == 0 {
					continue
				}
				if len(p.ready) == 0 || p.ready[0] != m.ready[0] {
					t.Fatalf("op %d: ready head %v, model %v", i, p.ready, m.ready)
				}
				copy(p.ready, p.ready[1:])
				p.ready = p.ready[:len(p.ready)-1]
				m.ready = m.ready[1:]
			case 4: // inject a wavefront read
				if writes+len(reads) == window || nextID == len(ids) {
					continue
				}
				id := ids[nextID]
				nextID++
				p.joinWavefront(id)
				reads = append(reads, id)
				wf := m.wfNext
				m.wfOf[id] = wf
				m.wfLeft[wf]++
				m.wfSize[wf]++
				if m.wfFill++; m.wfFill == g {
					m.wfFill = 0
					m.wfNext++
				}
			case 5: // a wavefront read completes
				if len(reads) == 0 {
					continue
				}
				j := arg % len(reads)
				id := reads[j]
				reads = append(reads[:j], reads[j+1:]...)
				got := p.leaveWavefront(id)
				wf := m.wfOf[id]
				delete(m.wfOf, id)
				want := 0
				if m.wfLeft[wf]--; m.wfLeft[wf] == 0 {
					want = m.wfSize[wf]
					delete(m.wfLeft, wf)
					delete(m.wfSize, wf)
				}
				if got != want {
					t.Fatalf("op %d: read %d closed a wavefront of %d, model %d", i, id, got, want)
				}
			}
			if err := m.check(p); err != nil {
				t.Fatalf("op %d (%d %d): %v", i, op, arg, err)
			}
		}
	})
}

// check compares the port's tables and queues with the model.
func (m *tableModel) check(p *Port) error {
	if err := checkTable("writes", &p.writes, m.pending); err != nil {
		return err
	}
	if err := checkTable("wfOf", &p.wfOf, m.wfOf); err != nil {
		return err
	}
	wfs := map[uint64]uint64{}
	for wf, left := range m.wfLeft {
		wfs[wf] = uint64(m.wfSize[wf])<<32 | uint64(left)
	}
	if err := checkTable("wfs", &p.wfs, wfs); err != nil {
		return err
	}
	n := 0
	for blk, want := range m.parked {
		var got []parked
		for _, r := range p.stalled {
			if r.tx.Addr&^63 == blk {
				got = append(got, r)
			}
		}
		if !slices.Equal(got, want) {
			return fmt.Errorf("block %#x stalled %v, model %v", blk, got, want)
		}
		n += len(want)
	}
	if len(p.stalled) != n {
		return fmt.Errorf("%d reads stalled, model %d", len(p.stalled), n)
	}
	if !slices.Equal(p.ready, m.ready) {
		return fmt.Errorf("ready %v, model %v", p.ready, m.ready)
	}
	return nil
}

// checkTable compares t with the model map want.
func checkTable[V int | uint64](name string, t *table, want map[uint64]V) error {
	if t.n != len(want) {
		return fmt.Errorf("%s holds %d keys, model %d", name, t.n, len(want))
	}
	for k, v := range want {
		if got := t.get(k); got != uint64(v) {
			return fmt.Errorf("%s[%#x] = %d, model %d", name, k, got, v)
		}
	}
	return nil
}

func sortedKeys[V any](m map[uint64]V) []uint64 {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
