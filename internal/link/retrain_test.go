package link

import (
	"testing"

	"memnet/internal/fault"
	"memnet/internal/packet"
	"memnet/internal/sim"
)

// retrainCycle kills d (draining into the void), begins retraining, and
// completes it.
func retrainCycle(d *Direction) {
	d.Fail(func(*packet.Packet) {})
	d.BeginRetrain()
	d.CompleteRetrain()
}

// TestRetrainStateMachine: the only legal path back to service is
// Up -> Down (Fail) -> Retraining (BeginRetrain) -> Up
// (CompleteRetrain); every shortcut panics.
func TestRetrainStateMachine(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, testCfg(), nil)
	if d.State() != Up {
		t.Fatalf("new direction is %v, want up", d.State())
	}
	mustPanic(t, "BeginRetrain on an up direction", func() { d.BeginRetrain() })
	mustPanic(t, "CompleteRetrain on an up direction", func() { d.CompleteRetrain() })

	d.Fail(func(*packet.Packet) {})
	if d.State() != Down || !d.Dead() {
		t.Fatalf("after Fail: state %v dead %v", d.State(), d.Dead())
	}
	mustPanic(t, "CompleteRetrain on a down direction", func() { d.CompleteRetrain() })
	mustPanic(t, "Fail on a down direction", func() { d.Fail(func(*packet.Packet) {}) })

	d.BeginRetrain()
	if d.State() != Retraining || !d.Dead() {
		t.Fatalf("after BeginRetrain: state %v dead %v", d.State(), d.Dead())
	}
	if d.CanAccept(packet.VCRequest) {
		t.Fatal("retraining direction accepts traffic")
	}
	mustPanic(t, "Fail on a retraining direction", func() { d.Fail(func(*packet.Packet) {}) })

	d.CompleteRetrain()
	if d.State() != Up || d.Dead() {
		t.Fatalf("after CompleteRetrain: state %v dead %v", d.State(), d.Dead())
	}
	if got := d.Stats().Retrains; got != 1 {
		t.Fatalf("Retrains = %d, want 1", got)
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

// TestRetrainResetsRetryState: packets parked in the retry buffer are
// drained by Fail, and recovery clears the buffer and its backoff
// history — the regression test for stale retry state surviving a
// repair.
func TestRetrainResetsRetryState(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, testCfg(), nil)
	d.AttachFault(fault.NewLinkFault(1, 1.0, 0, 8*sim.Nanosecond))
	d.SetDeliver(func(*packet.Packet) { t.Fatal("corrupted packet delivered") })
	d.Send(mkPacket(1, packet.ReadReq))
	eng.RunUntil(5 * sim.Nanosecond) // past the first corruption: packet parked
	if d.RetryLen() != 1 {
		t.Fatalf("retry buffer len %d, want 1", d.RetryLen())
	}
	drained := 0
	d.Fail(func(*packet.Packet) { drained++ })
	if drained != 1 {
		t.Fatalf("Fail drained %d packets, want 1", drained)
	}
	d.BeginRetrain()
	d.CompleteRetrain()
	if d.RetryLen() != 0 {
		t.Fatalf("retry buffer survived recovery: %d entries", d.RetryLen())
	}
	// The healed direction is fault-free here on out only because the
	// test detaches the model; a fresh send must deliver cleanly.
	d.AttachFault(nil)
	delivered := 0
	d.SetDeliver(func(*packet.Packet) { delivered++ })
	d.Send(mkPacket(2, packet.ReadReq))
	eng.Run()
	if delivered != 1 {
		t.Fatalf("post-recovery send: delivered %d, want 1", delivered)
	}
}

// TestRetrainResetsCreditStall: the per-VC credit-stall latch clears on
// recovery, so a post-repair stall is counted again (one per deferred
// packet, not zero and not double).
func TestRetrainResetsCreditStall(t *testing.T) {
	eng := sim.NewEngine()
	cfg := testCfg()
	cfg.Credits = 1
	d := New(eng, cfg, nil)
	d.SetDeliver(func(*packet.Packet) {})
	d.Send(mkPacket(1, packet.ReadReq)) // consumes the only credit
	d.Send(mkPacket(2, packet.ReadReq)) // stalls: latch sets, CreditStall=1
	eng.Run()
	if got := d.Stats().CreditStall; got != 1 {
		t.Fatalf("CreditStall = %d before recovery, want 1", got)
	}
	drained := 0
	d.Fail(func(*packet.Packet) { drained++ })
	if drained != 1 {
		t.Fatalf("Fail drained %d, want 1 (the stalled packet)", drained)
	}
	d.BeginRetrain()
	d.CompleteRetrain()
	// Packet 1 is still outstanding at the receiver, so the re-armed
	// counter is capacity minus one = 0, and a new head stalls afresh.
	if got := d.Credits(packet.VCRequest); got != 0 {
		t.Fatalf("credits after recovery = %d, want 0 (one outstanding)", got)
	}
	d.Send(mkPacket(3, packet.ReadReq))
	eng.Run()
	if got := d.Stats().CreditStall; got != 2 {
		t.Fatalf("CreditStall = %d after recovery stall, want 2", got)
	}
	// The stale return from packet 1 restores exactly full capacity.
	d.ReturnCredit(packet.VCRequest)
	eng.Run()
	if got := d.Credits(packet.VCRequest); got != 0 {
		t.Fatalf("credits = %d after packet 3 took the returned credit, want 0", got)
	}
	d.ReturnCredit(packet.VCRequest)
	if got := d.Credits(packet.VCRequest); got != cfg.Credits {
		t.Fatalf("credits = %d fully drained, want %d", got, cfg.Credits)
	}
}

// TestRetrainCreditReArm: credits re-arm to capacity minus outstanding,
// so stale ReturnCredits after recovery cannot overflow the counter.
func TestRetrainCreditReArm(t *testing.T) {
	eng := sim.NewEngine()
	cfg := testCfg()
	cfg.Credits = 4
	d := New(eng, cfg, nil)
	d.SetDeliver(func(*packet.Packet) {}) // receiver holds slots (no return)
	for i := 0; i < 3; i++ {
		d.Send(mkPacket(uint64(i), packet.ReadReq))
	}
	eng.Run() // all three land and stay outstanding
	retrainCycle(d)
	if got := d.Credits(packet.VCRequest); got != 1 {
		t.Fatalf("credits after recovery = %d, want 4-3=1", got)
	}
	for i := 0; i < 3; i++ {
		d.ReturnCredit(packet.VCRequest)
	}
	if got := d.Credits(packet.VCRequest); got != cfg.Credits {
		t.Fatalf("credits after stale returns = %d, want %d", got, cfg.Credits)
	}
	mustPanic(t, "extra ReturnCredit", func() { d.ReturnCredit(packet.VCRequest) })
}

// TestRetrainRestoresBandwidth: a direction that was down-bound before
// dying comes back at full construction-time width (retraining re-binds
// the complete lane set), and HealedBits counts exactly the traffic
// after recovery.
func TestRetrainRestoresBandwidth(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, testCfg(), nil)
	d.SetDeliver(func(p *packet.Packet) { d.ReturnCredit(packet.VCOf(p.Kind)) })
	d.Send(mkPacket(1, packet.ReadReq))
	eng.Run()
	d.Downbind()
	if d.Bandwidth() != 120e9 {
		t.Fatalf("downbind: %d bps", d.Bandwidth())
	}
	if d.HealedBits() != 0 {
		t.Fatalf("HealedBits = %d before any retrain", d.HealedBits())
	}
	retrainCycle(d)
	if d.Bandwidth() != 240e9 {
		t.Fatalf("bandwidth after retrain = %d, want full 240e9", d.Bandwidth())
	}
	d.Send(mkPacket(2, packet.ReadReq))
	eng.Run()
	want := uint64(packet.ReadReq.Bits())
	if d.HealedBits() != want {
		t.Fatalf("HealedBits = %d, want %d (one post-repair packet)", d.HealedBits(), want)
	}
}

// TestRebindRestoresBandwidth: the Up half of a lane flap restores full
// width without a service interruption.
func TestRebindRestoresBandwidth(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, testCfg(), nil)
	d.Downbind()
	d.Downbind()
	if d.Bandwidth() != 60e9 {
		t.Fatalf("two downbinds: %d bps", d.Bandwidth())
	}
	d.Rebind()
	if d.Bandwidth() != 240e9 {
		t.Fatalf("rebind: %d bps, want 240e9", d.Bandwidth())
	}
	if d.Dead() {
		t.Fatal("rebind must not change service state")
	}
}
