package main

import (
	"encoding/json"
	"math"
	"testing"
)

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a := streamFingerprint(newStream(7, w, 500, 1000, 3000))
		b := streamFingerprint(newStream(7, w, 500, 1000, 3000))
		c := streamFingerprint(newStream(8, w, 500, 1000, 3000))
		if a != b {
			t.Errorf("%s: same seed, different streams", w.Name)
		}
		if a == c {
			t.Errorf("%s: different seeds, same stream", w.Name)
		}
	}
}

func TestMixSharesAndBounds(t *testing.T) {
	const users, items, n = 120, 150, 5000
	for _, w := range workloads {
		total := 0
		for _, s := range w.Shares {
			total += s
		}
		if total != 100 {
			t.Fatalf("%s: shares sum to %d, want 100", w.Name, total)
		}
		if w.LadderWarm && w.Shares[opRate]+w.Shares[opRate16] > 0 {
			t.Errorf("%s: a warm ladder shares one model between rungs and cannot have writes", w.Name)
		}
		var count [numOps]int
		for _, rq := range newStream(3, w, users, items, n) {
			count[rq.op]++
			cells := append([]cell{{user: rq.user, item: rq.item}}, rq.cells...)
			for _, c := range cells {
				if c.user < 0 || c.user >= users || c.item < 0 || c.item >= items {
					t.Fatalf("%s: %s touches (%d,%d) outside %d×%d", w.Name, rq.op, c.user, c.item, users, items)
				}
			}
			if rq.op.isWrite() {
				for _, c := range rq.ratings() {
					if c.rating < 1 || c.rating > 5 || c.rating != math.Trunc(c.rating) {
						t.Fatalf("%s: rating %v is not one of 1..5", w.Name, c.rating)
					}
				}
			}
			if (rq.body != nil) != (rq.op != opPredict && rq.op != opRecommend) || (rq.body != nil && !json.Valid(rq.body)) {
				t.Fatalf("%s: %s has body %q", w.Name, rq.op, rq.body)
			}
			if (rq.op == opRate16 || rq.op == opBatch) && len(rq.cells) != groupSize {
				t.Fatalf("%s: %s carries %d cells, want %d", w.Name, rq.op, len(rq.cells), groupSize)
			}
		}
		for o, c := range count {
			if got, want := 100*float64(c)/n, float64(w.Shares[o]); math.Abs(got-want) > 1 {
				t.Errorf("%s: %s is %.2f%% of the stream, want %v%% ± 1", w.Name, op(o), got, want)
			}
		}
	}
}

// Zipf(1.0) over the users: the most popular user is drawn about
// 1/H(n) of the time, far more often than the least popular one.
func TestZipfIsSkewed(t *testing.T) {
	reqs := newStream(5, workload{Shares: [numOps]int{opPredict: 100}}, 500, 1000, 20000)
	byUser := map[int]int{}
	for _, rq := range reqs {
		byUser[rq.user]++
	}
	top := 0
	for _, c := range byUser {
		top = max(top, c)
	}
	if share := float64(top) / float64(len(reqs)); share < 0.12 || share > 0.18 { // 1/H(500) = 0.147
		t.Errorf("most popular user has %.3f of the draws, want about 0.147", share)
	}
}
