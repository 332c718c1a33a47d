// Allocation budgets for whole simulations. A run allocates its
// substrate, caches and scheme state up front, so its count is not
// zero, but it is deterministic: it moves only when per-run or per-event
// garbage is added or removed. TestAllocBudget runs the exact bodies of
// BenchmarkEndToEnd and both BenchmarkGangSweep arms and holds each
// count within ±20% of its measured value; a change that moves a count
// on purpose takes the new value from the failure message.
//
// Under -race the runs take about ten times as long and the race
// runtime may allocate differently, so no CI -race job's -run pattern
// selects this test.
package banshee_test

import "testing"

func TestAllocBudget(t *testing.T) {
	const tol = 0.2
	check := func(name string, want float64, run func() error) {
		t.Helper()
		var err error
		got := testing.AllocsPerRun(1, func() {
			if e := run(); e != nil && err == nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got < want*(1-tol) || got > want*(1+tol) {
			t.Errorf("%s: %v allocs per run, want %v ± %.0f%%", name, got, want, tol*100)
		}
	}

	var i int
	check("EndToEnd", 175, func() error {
		err := endToEndRun(i)
		i++
		return err
	})
	want := map[string]float64{"independent": 2776, "gang8": 1256}
	for _, arm := range gangSweepArms {
		check("GangSweep/"+arm.name, want[arm.name], func() error {
			_, err := arm.run()
			return err
		})
	}
}
