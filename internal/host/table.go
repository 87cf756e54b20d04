package host

import "math/bits"

// table is a fixed-capacity open-addressed hash table from uint64 keys
// to uint64 values: linear probing, with deletion by backward shift, so
// no tombstones accumulate: after any run of inserts and deletes the
// probe sequences are those of a table freshly filled with the keys it
// holds. Its slots are a
// power of two at least twice the keys it may hold, and it never grows:
// a key beyond that bound is a miscount of the window and panics.
//
// The port's coherence and wavefront state each hold at most one window
// of keys, so tables carved once at New serve a whole run.
type table struct {
	slots []slot
	// shift turns the 64-bit hash into a slot index: 64 minus log2 of
	// the slot count.
	shift uint8
	n     int // keys held
	max   int // keys the table may hold
}

// slot is one table entry; a zero key marks it empty, so it stores the
// key plus one (no key the port uses is the maximum uint64).
type slot struct {
	key uint64
	val uint64
}

// tableSlots returns the slot count of a table holding up to keys keys:
// the smallest power of two at least twice keys (and at least 2).
func tableSlots(keys int) int {
	n := 2
	for n < 2*keys {
		n *= 2
	}
	return n
}

// init makes t a table of up to keys keys over slots, whose length
// must be tableSlots(keys).
func (t *table) init(slots []slot, keys int) {
	*t = table{slots: slots, shift: uint8(64 - bits.TrailingZeros(uint(len(slots)))), max: keys}
}

// home is the slot key's probe sequence starts at (Fibonacci hashing:
// block addresses, packet IDs and wavefront numbers all spread).
func (t *table) home(key uint64) int {
	return int((key * 0x9E3779B97F4A7C15) >> t.shift)
}

// find returns the slot holding key and true, or the empty slot that
// ends key's probe sequence and false.
func (t *table) find(key uint64) (int, bool) {
	mask := len(t.slots) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		switch t.slots[i].key {
		case key + 1:
			return i, true
		case 0:
			return i, false
		}
	}
}

// get returns key's value, 0 when absent.
func (t *table) get(key uint64) uint64 {
	if i, ok := t.find(key); ok {
		return t.slots[i].val
	}
	return 0
}

// ref returns a pointer to key's value, inserting key with value 0 if
// absent. The pointer is valid until the next insert or delete.
func (t *table) ref(key uint64) *uint64 {
	i, ok := t.find(key)
	if !ok {
		if t.n == t.max {
			panic("host: table holds more keys than the window")
		}
		t.slots[i] = slot{key: key + 1}
		t.n++
	}
	return &t.slots[i].val
}

// del removes key and returns its value, 0 when absent. Each entry after the hole in its probe
// run moves back into the hole unless that would put it before its
// home slot, so every remaining key stays reachable from its home.
func (t *table) del(key uint64) uint64 {
	i, ok := t.find(key)
	if !ok {
		return 0
	}
	val := t.slots[i].val
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j].key != 0; j = (j + 1) & mask {
		// The entry at j is displaced from its home by (j-home); it
		// may fill the hole at i if that is no further back than home.
		if (j-t.home(t.slots[j].key-1))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = slot{}
	t.n--
	return val
}
