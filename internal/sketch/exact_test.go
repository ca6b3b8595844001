package sketch

import "testing"

func TestExactCounterSynopsis(t *testing.T) {
	e := NewExact()
	e.Update(1, 5)
	e.Update(1, 3)
	e.Update(2, 1)
	if e.Estimate(1) != 8 || e.Estimate(2) != 1 || e.Estimate(3) != 0 {
		t.Error("exact estimates wrong")
	}
	if e.Count() != 9 || e.Distinct() != 2 {
		t.Errorf("count=%d distinct=%d", e.Count(), e.Distinct())
	}
	seen := 0
	e.Range(func(k uint64, v int64) bool { seen++; return true })
	if seen != 2 {
		t.Errorf("range visited %d keys", seen)
	}
	// Early-stop contract.
	seen = 0
	e.Range(func(k uint64, v int64) bool { seen++; return false })
	if seen != 1 {
		t.Errorf("range ignored early stop, visited %d", seen)
	}
	e.Reset()
	if e.Count() != 0 || e.Distinct() != 0 {
		t.Error("reset did not clear")
	}
}
