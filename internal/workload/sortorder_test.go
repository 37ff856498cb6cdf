package workload_test

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/moldable"
	"repro/internal/platform"
	"repro/internal/rigid"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// tieJobs draws n jobs that tie everywhere: IDs repeat, and times,
// releases and widths are small integers. Some inputs come sorted or
// reversed by ID, the patterns pdqsort treats specially.
func tieJobs(rng *stats.RNG) []*workload.Job {
	jobs := make([]*workload.Job, rng.Intn(300))
	for i := range jobs {
		maxP := rng.IntRange(1, 6)
		times := make([]float64, maxP)
		for p := range times {
			times[p] = float64(rng.IntRange(1, 4))
		}
		jobs[i] = &workload.Job{
			ID: rng.Intn(8), Kind: workload.Moldable, Release: float64(rng.Intn(4)), Weight: 1, DueDate: -1,
			SeqTime: 1, MinProcs: rng.IntRange(1, maxP), MaxProcs: maxP, Times: times,
		}
	}
	switch rng.Intn(4) {
	case 0:
		slices.SortStableFunc(jobs, func(a, b *workload.Job) int { return cmp.Compare(a.ID, b.ID) })
	case 1:
		slices.SortStableFunc(jobs, func(a, b *workload.Job) int { return cmp.Compare(b.ID, a.ID) })
	}
	return jobs
}

// oldSortJobs is rigid.sortJobs's stable sort as it stood.
func oldSortJobs(jobs []*workload.Job, ord rigid.Order) []*workload.Job {
	out := append([]*workload.Job(nil), jobs...)
	cmpTime := func(j *workload.Job) float64 { return j.TimeOn(j.MinProcs) }
	slices.SortStableFunc(out, func(a, b *workload.Job) int {
		var ka, kb float64
		switch ord {
		case rigid.ByLPT:
			ka, kb = cmpTime(b), cmpTime(a) // descending
		case rigid.BySPT:
			ka, kb = cmpTime(a), cmpTime(b)
		case rigid.ByArea:
			ka, kb = b.WorkOn(b.MinProcs), a.WorkOn(a.MinProcs) // descending
		default: // ByRelease
			ka, kb = a.Release, b.Release
		}
		if ka != kb {
			if ka < kb {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.ID, b.ID)
	})
	return out
}

// newSortJobs is rigid.sortJobs: the keys once, then SortKeyed.
func newSortJobs(jobs []*workload.Job, ord rigid.Order) []*workload.Job {
	keys := make([]workload.Keyed, len(jobs))
	for i, j := range jobs {
		var k float64
		switch ord {
		case rigid.ByLPT, rigid.BySPT:
			k = j.TimeOn(j.MinProcs)
		case rigid.ByArea:
			k = j.WorkOn(j.MinProcs)
		default:
			k = j.Release
		}
		keys[i] = workload.Keyed{Key: k, ID: j.ID, Pos: i}
	}
	workload.SortKeyed(keys, ord == rigid.ByLPT || ord == rigid.ByArea)
	return permute(jobs, keys)
}

func permute[T any](x []T, keys []workload.Keyed) []T {
	out := make([]T, len(keys))
	for i, k := range keys {
		out[i] = x[k.Pos]
	}
	return out
}

// smithItem is lowerbound.SumWeightedCompletionOf's Smith-rule item.
type smithItem struct {
	size, weight float64
	tag          int
}

// csvRows renders rows the way trace.WriteCSV does.
func csvRows(rows []sched.Alloc) []byte {
	var b bytes.Buffer
	fmt.Fprintln(&b, "job,class,start,end,procs,weight,release")
	for _, a := range rows {
		fmt.Fprintf(&b, "%d,%s,%g,%g,%d,%g,%g\n",
			a.Job.ID, a.Job.Class, a.Start, a.End(), a.Procs, a.Job.Weight, a.Job.Release)
	}
	return b.Bytes()
}

// TestSortsMatchOldCalls: every sort this code moved from sort.Slice or
// slices.SortStableFunc to slices.SortFunc gives the old call's
// permutation, on random tie-heavy inputs with repeated IDs and equal
// keys. The sort.Slice rows hold because both sorts are pdqsort from one
// template with one limit and a cmp that is only ever tested below zero;
// the stable rows because the input position, as the last key, makes the
// order total. If a Go release breaks either, this test fails. The
// trace and platform rows call the product functions themselves; the
// others repeat the site's keys around workload.SortKeyed.
func TestSortsMatchOldCalls(t *testing.T) {
	rows := []struct {
		name  string
		check func(rng *stats.RNG) bool
	}{
		{"smith items", func(rng *stats.RNG) bool {
			items := make([]smithItem, rng.Intn(300))
			for i := range items {
				items[i] = smithItem{size: float64(rng.IntRange(1, 6)) / 4, weight: float64(rng.Intn(4)), tag: i}
			}
			old, got := slices.Clone(items), slices.Clone(items)
			sort.Slice(old, func(a, b int) bool {
				wa, wb := old[a].weight, old[b].weight
				if wa > 0 && wb > 0 {
					return old[a].size*wb < old[b].size*wa
				}
				return wa > wb
			})
			slices.SortFunc(got, func(a, b smithItem) int {
				if a.weight > 0 && b.weight > 0 {
					if a.size*b.weight < b.size*a.weight {
						return -1
					}
				} else if a.weight > b.weight {
					return -1
				}
				return 1
			})
			return slices.Equal(old, got)
		}},
		{"sortJobs ByRelease", func(rng *stats.RNG) bool {
			jobs := tieJobs(rng)
			return slices.Equal(oldSortJobs(jobs, rigid.ByRelease), newSortJobs(jobs, rigid.ByRelease))
		}},
		{"sortJobs ByLPT", func(rng *stats.RNG) bool {
			jobs := tieJobs(rng)
			return slices.Equal(oldSortJobs(jobs, rigid.ByLPT), newSortJobs(jobs, rigid.ByLPT))
		}},
		{"sortJobs BySPT", func(rng *stats.RNG) bool {
			jobs := tieJobs(rng)
			return slices.Equal(oldSortJobs(jobs, rigid.BySPT), newSortJobs(jobs, rigid.BySPT))
		}},
		{"sortJobs ByArea", func(rng *stats.RNG) bool {
			jobs := tieJobs(rng)
			return slices.Equal(oldSortJobs(jobs, rigid.ByArea), newSortJobs(jobs, rigid.ByArea))
		}},
		{"pack shelf 2", func(rng *stats.RNG) bool {
			var shelf2 []moldable.Allotment
			for _, j := range tieJobs(rng) {
				shelf2 = append(shelf2, moldable.Allotment{Job: j, Procs: j.MinProcs, Time: j.TimeOn(j.MinProcs), Shelf: 2})
			}
			old := slices.Clone(shelf2)
			slices.SortStableFunc(old, func(x, y moldable.Allotment) int {
				if x.Time != y.Time {
					if x.Time > y.Time {
						return -1
					}
					return 1
				}
				return cmp.Compare(x.Job.ID, y.Job.ID)
			})
			keys := make([]workload.Keyed, 0, len(shelf2))
			for i, a := range shelf2 {
				keys = append(keys, workload.Keyed{Key: a.Time, ID: a.Job.ID, Pos: i})
			}
			workload.SortKeyed(keys, true)
			return slices.Equal(old, permute(shelf2, keys))
		}},
		{"hetero SpeedAwareLPT", func(rng *stats.RNG) bool {
			jobs, widest := tieJobs(rng), rng.IntRange(1, 6)
			type keyed struct {
				job  *workload.Job
				work float64
			}
			old := make([]keyed, len(jobs))
			keys := make([]workload.Keyed, len(jobs))
			for i, j := range jobs {
				w, _ := j.MinWork(widest)
				old[i] = keyed{j, w}
				keys[i] = workload.Keyed{Key: w, ID: j.ID, Pos: i}
			}
			slices.SortStableFunc(old, func(a, b keyed) int {
				if a.work != b.work {
					if a.work > b.work {
						return -1
					}
					return 1
				}
				return cmp.Compare(a.job.ID, b.job.ID)
			})
			workload.SortKeyed(keys, true)
			got := permute(jobs, keys)
			for i := range old {
				if old[i].job != got[i] {
					return false
				}
			}
			return true
		}},
		{"trace.WriteCSV rows", func(rng *stats.RNG) bool {
			s := sched.New(8)
			for i, j := range tieJobs(rng) {
				// A distinct SeqTime gives tied starts distinct ends, so
				// their row order shows in the file.
				j.SeqTime, j.Times, j.Model = float64(i+1), nil, workload.Linear{}
				s.Add(sched.Alloc{Job: j, Start: float64(rng.Intn(5)), Procs: j.MinProcs})
			}
			rows := slices.Clone(s.Allocs)
			sort.Slice(rows, func(i, k int) bool { return rows[i].Start < rows[k].Start })
			var got bytes.Buffer
			if err := trace.WriteCSV(&got, s); err != nil {
				t.Fatal(err)
			}
			return bytes.Equal(got.Bytes(), csvRows(rows))
		}},
		{"platform.NewCalendar reservations", func(rng *stats.RNG) bool {
			rs := make([]platform.Reservation, rng.Intn(300))
			for i := range rs {
				start := float64(rng.Intn(5))
				rs[i] = platform.Reservation{Name: fmt.Sprint(i), Start: start, End: start + 1, Procs: 1}
			}
			c, err := platform.NewCalendar(len(rs)+1, rs)
			if err != nil {
				t.Fatal(err)
			}
			old := slices.Clone(rs)
			sort.Slice(old, func(i, k int) bool { return old[i].Start < old[k].Start })
			return slices.Equal(old, c.Reservations())
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 200; seed++ {
				if !row.check(stats.NewRNG(seed)) {
					t.Fatalf("seed %d: permutation differs from the old call's", seed)
				}
			}
		})
	}
}
