package fault

import (
	"reflect"
	"strings"
	"testing"

	"memnet/internal/sim"
)

const ns = sim.Nanosecond

// TestBuildRejects: every inconsistent fault/repair timeline is caught
// at Build time, before the schedule reaches the simulator.
func TestBuildRejects(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string // substring of the error
	}{
		{
			name: "link repair without kill",
			cfg:  Config{RepairLinks: []LinkRepair{{Edge: 2, At: 100 * ns}}},
			want: "not down",
		},
		{
			name: "cube repair without kill",
			cfg:  Config{RepairCubes: []CubeRepair{{Node: 3, At: 100 * ns}}},
			want: "not dead",
		},
		{
			name: "link repair before kill",
			cfg: Config{
				KillLinks:   []LinkKill{{Edge: 1, At: 500 * ns}},
				RepairLinks: []LinkRepair{{Edge: 1, At: 100 * ns}},
			},
			want: "not down",
		},
		{
			name: "link repair at kill instant",
			cfg: Config{
				KillLinks:   []LinkKill{{Edge: 1, At: 500 * ns}},
				RepairLinks: []LinkRepair{{Edge: 1, At: 500 * ns}},
			},
			want: "at or before its kill",
		},
		{
			name: "cube repair at kill instant",
			cfg: Config{
				KillCubes:   []CubeKill{{Node: 4, At: 500 * ns}},
				RepairCubes: []CubeRepair{{Node: 4, At: 500 * ns}},
			},
			want: "at or before its kill",
		},
		{
			name: "double link kill without repair",
			cfg:  Config{KillLinks: []LinkKill{{Edge: 1, At: 100 * ns}, {Edge: 1, At: 200 * ns}}},
			want: "already down",
		},
		{
			name: "double cube kill without repair",
			cfg:  Config{KillCubes: []CubeKill{{Node: 3, At: 100 * ns}, {Node: 3, At: 200 * ns}}},
			want: "already dead",
		},
		{
			name: "re-kill inside the retraining window",
			cfg: Config{
				// Repair lands at 200ns, retrains until 400ns; the 300ns
				// kill hits a link that is still retraining (= down).
				KillLinks:   []LinkKill{{Edge: 0, At: 100 * ns}, {Edge: 0, At: 300 * ns}},
				RepairLinks: []LinkRepair{{Edge: 0, At: 200 * ns}},
			},
			want: "already down",
		},
		{
			name: "overlapping flap windows",
			cfg: Config{LaneFlaps: []LaneFlap{
				{Edge: 2, Down: 100 * ns, Up: 500 * ns},
				{Edge: 2, Down: 300 * ns, Up: 700 * ns},
			}},
			want: "overlapping lane flaps",
		},
		{
			name: "touching flap windows",
			cfg: Config{LaneFlaps: []LaneFlap{
				{Edge: 2, Down: 100 * ns, Up: 300 * ns},
				{Edge: 2, Down: 300 * ns, Up: 500 * ns},
			}},
			want: "overlapping lane flaps",
		},
		{
			name: "flap and kill on one edge",
			cfg: Config{
				KillLinks: []LinkKill{{Edge: 2, At: 700 * ns}},
				LaneFlaps: []LaneFlap{{Edge: 2, Down: 100 * ns, Up: 300 * ns}},
			},
			want: "both a kill and a lane flap",
		},
		{
			name: "flap and permanent lane failure on one edge",
			cfg: Config{
				LaneFails: []LaneFail{{Edge: 2, At: 700 * ns}},
				LaneFlaps: []LaneFlap{{Edge: 2, Down: 100 * ns, Up: 300 * ns}},
			},
			want: "permanent lane failure and a lane flap",
		},
		{
			name: "link repair would heal a permanent lane failure",
			cfg: Config{
				KillLinks:   []LinkKill{{Edge: 2, At: 200 * ns}},
				LaneFails:   []LaneFail{{Edge: 2, At: 100 * ns}},
				RepairLinks: []LinkRepair{{Edge: 2, At: 500 * ns}},
			},
			want: "permanent lane failure and a link repair",
		},
		{
			name: "inverted flap window",
			cfg:  Config{LaneFlaps: []LaneFlap{{Edge: 2, Down: 300 * ns, Up: 100 * ns}}},
			want: "at or before its start",
		},
		{
			name: "negative repair time",
			cfg:  Config{RepairLinks: []LinkRepair{{Edge: 2, At: -1}}},
			want: "invalid link repair",
		},
		{
			name: "host cube repair",
			cfg:  Config{RepairCubes: []CubeRepair{{Node: 0, At: 100 * ns}}},
			want: "invalid cube repair",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg.WithDefaults()
			_, err := cfg.Build()
			if err == nil {
				t.Fatalf("Build accepted %+v", tc.cfg)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestBuildValidTimeline: a kill/repair/re-kill cycle on one target is
// legal, and the merged schedule shifts link-repair events to their
// effective link-up instant (Start + RetrainWindow).
func TestBuildValidTimeline(t *testing.T) {
	cfg := Config{
		KillLinks:   []LinkKill{{Edge: 0, At: 100 * ns}, {Edge: 0, At: 2000 * ns}},
		RepairLinks: []LinkRepair{{Edge: 0, At: 500 * ns}, {Edge: 0, At: 3000 * ns}},
		KillCubes:   []CubeKill{{Node: 3, At: 200 * ns}},
		RepairCubes: []CubeRepair{{Node: 3, At: 600 * ns}},
		LaneFlaps:   []LaneFlap{{Edge: 5, Down: 100 * ns, Up: 300 * ns}, {Edge: 5, Down: 400 * ns, Up: 700 * ns}},
	}
	withDefaults := cfg.WithDefaults()
	evs, err := withDefaults.Build()
	if err != nil {
		t.Fatalf("valid timeline rejected: %v", err)
	}
	if len(evs) != 10 {
		t.Fatalf("got %d events, want 10: %+v", len(evs), evs)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatalf("schedule out of order at %d: %+v", i, evs)
		}
	}
	for _, ev := range evs {
		if ev.Kind != EvRepairLink {
			continue
		}
		if ev.At != ev.Start+withDefaults.RetrainWindow {
			t.Errorf("repair event at %v, want Start %v + window %v",
				ev.At, ev.Start, withDefaults.RetrainWindow)
		}
	}
}

// TestScheduleRepairOrdering: same-instant fault and repair events sort
// faults first, so Build sees the ambiguous pair as a kill-while-down.
func TestScheduleRepairOrdering(t *testing.T) {
	cfg := Config{
		KillLinks:   []LinkKill{{Edge: 1, At: 100 * ns}},
		RepairLinks: []LinkRepair{{Edge: 1, At: 400 * ns}},
		KillCubes:   []CubeKill{{Node: 2, At: 500 * ns}},
		RepairCubes: []CubeRepair{{Node: 2, At: 900 * ns}},
		LaneFlaps:   []LaneFlap{{Edge: 0, Down: 100 * ns, Up: 900 * ns}},
	}
	withDefaults := cfg.WithDefaults()
	evs := withDefaults.Schedule()
	kinds := make([]EventKind, len(evs))
	for i, ev := range evs {
		kinds[i] = ev.Kind
	}
	want := []EventKind{
		EvKillLink, EvLaneFail, // both at 100ns, fault declaration order
		EvKillCube,                 // 500ns
		EvRepairLink,               // 400ns + 200ns window = 600ns
		EvRepairCube, EvLaneRepair, // both at 900ns
	}
	if !reflect.DeepEqual(kinds, want) {
		t.Errorf("schedule kinds %v, want %v (events %+v)", kinds, want, evs)
	}
}
