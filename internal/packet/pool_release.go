//go:build !simdebug

package packet

// poolDebug is off in release builds; the guard calls below are dead
// code the compiler removes from the Get/Put hot paths.
const poolDebug = false

func (pl *Pool) debugPut(*Packet) {}

func (pl *Pool) debugGet(*Packet) {}

func (pl *Pool) debugReserve(int) {}
