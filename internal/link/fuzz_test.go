package link

import (
	"slices"
	"testing"

	"memnet/internal/fault"
	"memnet/internal/packet"
	"memnet/internal/sim"
)

// FuzzLinkPump drives Direction and refDirection — the direction before
// its wire-free pump could be deferred — side by side, each on its own
// engine, with the same sends, credit returns, CRC faults, failures,
// retraining and lane down-binds. After every operation both must show
// the same deliveries (order and time), space callbacks, salvaged
// packets, Stats, queue, credit and retry-buffer state, clock and
// logical event count (Fired).
func FuzzLinkPump(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			data = data[:2048]
		}
		checkLinkTwin(t, data)
	})
}

// pumped is what the twin drives on either direction.
type pumped interface {
	SetDeliver(fn func(*packet.Packet))
	SetOnSpace(fn func(packet.VC))
	AttachFault(f *fault.LinkFault)
	Stats() Stats
	CanAccept(vc packet.VC) bool
	QueueLen(vc packet.VC) int
	Credits(vc packet.VC) int
	RetryLen() int
	State() State
	Downbind()
	Rebind()
	Fail(drain func(*packet.Packet))
	BeginRetrain()
	CompleteRetrain()
	Send(p *packet.Packet)
	ReturnCredit(vc packet.VC)
}

// linkRecord is one delivery (kind 'd'), space callback ('s') or
// salvaged packet ('f').
type linkRecord struct {
	at   sim.Time
	kind byte
	id   uint64
	vc   packet.VC
}

// linkState is the direction and engine state the twin compares.
type linkState struct {
	now     sim.Time
	fired   uint64
	stats   Stats
	state   State
	queue   [packet.NumVCs]int
	credits [packet.NumVCs]int
	retry   int
}

// linkSide is one direction on its own engine. Landed packets occupy
// the receiver until an op frees their slot (ReturnCredit).
type linkSide struct {
	eng  *sim.Engine
	d    pumped
	held [packet.NumVCs]int
	log  []linkRecord
}

func newLinkSide(d pumped, eng *sim.Engine) *linkSide {
	s := &linkSide{eng: eng, d: d}
	d.SetDeliver(func(p *packet.Packet) {
		vc := packet.VCOf(p.Kind)
		s.log = append(s.log, linkRecord{at: eng.Now(), kind: 'd', id: p.ID, vc: vc})
		s.held[vc]++
	})
	d.SetOnSpace(func(vc packet.VC) {
		s.log = append(s.log, linkRecord{at: eng.Now(), kind: 's', vc: vc})
	})
	return s
}

func (s *linkSide) state() linkState {
	st := linkState{now: s.eng.Now(), fired: s.eng.Fired(), stats: s.d.Stats(),
		state: s.d.State(), retry: s.d.RetryLen()}
	for vc := packet.VC(0); vc < packet.NumVCs; vc++ {
		st.queue[vc], st.credits[vc] = s.d.QueueLen(vc), s.d.Credits(vc)
	}
	return st
}

// cycle moves the direction one step around its service states: an Up
// direction fails (salvaging its queues), a Down one begins retraining,
// a retraining one returns to service.
func (s *linkSide) cycle() {
	switch s.d.State() {
	case Up:
		s.d.Fail(func(p *packet.Packet) {
			s.log = append(s.log, linkRecord{at: s.eng.Now(), kind: 'f', id: p.ID})
		})
	case Down:
		s.d.BeginRetrain()
	default:
		s.d.CompleteRetrain()
	}
}

// checkLinkTwin decodes data into a direction configuration and an
// operation sequence and runs it on both directions. Three header bytes
// pick the bandwidth and SerDes latency, the queue depth, credits and
// VC policy, and the CRC fault model (bit error rate, retry limit and
// backoff). Then each op byte, taken mod 8, is
//
//	0 send a packet of the kind next&3, if its queue has room
//	1 advance both clocks by next * 250 ps
//	2 free one receiver slot of VC next&1 (ReturnCredit), if one is held
//	3 cycle the service state: fail, begin retraining, or restore
//	4 fill both queues
//	5 halve the bandwidth (Downbind), or with bit 3 set restore it
//	6 advance both clocks by next%64 ps
//	7 free every held receiver slot
func checkLinkTwin(t *testing.T, data []byte) {
	t.Helper()
	in := data
	next := func() byte {
		if len(in) == 0 {
			return 0
		}
		c := in[0]
		in = in[1:]
		return c
	}
	bb, qb, fb := next(), next(), next()
	cfg := Config{
		BandwidthBps:  [...]int64{24e9, 60e9, 240e9, 2e9}[bb&3],
		SerDesLatency: sim.Time(bb>>2) * 100,
		QueueDepth:    1 + int(qb&3),
		Credits:       1 + int(qb>>2)&3,
		NoVCPriority:  qb&0x10 != 0,
		CountHop:      true,
	}
	ber := [...]float64{0, 1e-5, 1e-4, 1e-3}[fb&3]
	maxRetries := int(fb>>2) & 3
	backoff := sim.Time(fb>>4) * 300

	engN, engR := sim.NewEngine(), sim.NewEngine()
	dn, dr := New(engN, cfg, nil), newRefDirection(engR, cfg, nil)
	if ber > 0 {
		dn.AttachFault(fault.NewLinkFault(uint64(fb)+1, ber, maxRetries, backoff))
		dr.AttachFault(fault.NewLinkFault(uint64(fb)+1, ber, maxRetries, backoff))
	}
	sn, sr := newLinkSide(dn, engN), newLinkSide(dr, engR)
	sides := [2]*linkSide{sn, sr}
	kinds := [...]packet.Kind{packet.ReadReq, packet.WriteReq, packet.ReadResp, packet.WriteAck}

	id := uint64(0)
	send := func(k packet.Kind) {
		vc := packet.VCOf(k)
		if !dn.CanAccept(vc) {
			return
		}
		id++
		for _, s := range sides {
			s.d.Send(&packet.Packet{ID: id, Kind: k})
		}
	}
	advance := func(d sim.Time) {
		deadline := engN.Now() + d
		for _, s := range sides {
			s.eng.RunUntil(deadline)
		}
	}
	free := func(vc packet.VC) {
		for _, s := range sides {
			s.held[vc]--
			s.d.ReturnCredit(vc)
		}
	}
	check := func(op string) {
		if a, b := sn.state(), sr.state(); a != b {
			t.Fatalf("after %s: state %+v, reference %+v", op, a, b)
		}
		if !slices.Equal(sn.log, sr.log) {
			k := 0
			for k < len(sn.log) && k < len(sr.log) && sn.log[k] == sr.log[k] {
				k++
			}
			t.Fatalf("after %s: record %d differs (%d vs %d records): %+v vs %+v", op, k,
				len(sn.log), len(sr.log), sn.log[k:min(k+1, len(sn.log))], sr.log[k:min(k+1, len(sr.log))])
		}
	}

	for len(in) > 0 {
		op := next()
		switch op % 8 {
		case 0:
			send(kinds[next()&3])
		case 1:
			advance(sim.Time(next()) * 250)
		case 2:
			if vc := packet.VC(next() & 1); sn.held[vc] > 0 {
				free(vc)
			}
		case 3:
			for _, s := range sides {
				s.cycle()
			}
		case 4:
			for _, k := range kinds {
				for dn.CanAccept(packet.VCOf(k)) {
					send(k)
				}
			}
		case 5:
			for _, s := range sides {
				if op&8 != 0 {
					s.d.Rebind()
				} else {
					s.d.Downbind()
				}
			}
		case 6:
			advance(sim.Time(next() % 64))
		case 7:
			for vc := packet.VC(0); vc < packet.NumVCs; vc++ {
				for sn.held[vc] > 0 {
					free(vc)
				}
			}
		}
		check("op " + string('0'+rune(op%8)))
	}
	// Drain: restore service, then run both out, freeing the receiver
	// as packets land.
	for dn.State() != Up {
		for _, s := range sides {
			s.cycle()
		}
	}
	for {
		for _, s := range sides {
			s.eng.Run()
		}
		check("drain")
		if sn.held == [packet.NumVCs]int{} {
			break
		}
		for vc := packet.VC(0); vc < packet.NumVCs; vc++ {
			for sn.held[vc] > 0 {
				free(vc)
			}
		}
	}
}
