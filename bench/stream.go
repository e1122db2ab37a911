package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
)

// The stream generator lives here and not in internal/loadgen on
// purpose: a refactor of the load harness must not be able to change
// what the benchmark offers.

// cell is one (user, item[, rating]) entry of a batch or array body.
type cell struct {
	user, item int
	rating     float64
}

// request is one API call of the stream, in both forms the benchmark
// needs: the fields the in-process rungs call the layers with, and the
// target and body the HTTP rungs send.
type request struct {
	op     op
	user   int
	item   int
	rating float64
	cells  []cell // rate16: the ratings; batch: the pairs
	target string // path and query
	body   []byte // nil for GET
}

// ratings returns the rating updates a write request carries.
func (r *request) ratings() []cell {
	switch r.op {
	case opRate:
		return []cell{{r.user, r.item, r.rating}}
	case opRate16:
		return r.cells
	}
	return nil
}

// popularitySeed fixes who is popular. The ranking of users and items
// belongs to the population, like the dataset: were it drawn per run, one
// seed's busiest user would hold 40 ratings and the next one's 300, and
// the cost of a request would follow the seed instead of the code.
const popularitySeed = 1

// zipf draws ids with probability proportional to 1/rank^s, ranks being
// a fixed permutation of the ids.
type zipf struct {
	cum []float64
	ids []int
}

func newZipf(ranking *rand.Rand, n int, s float64) zipf {
	z := zipf{cum: make([]float64, n), ids: ranking.Perm(n)}
	var total float64
	for k := 0; k < n; k++ {
		total += 1 / math.Pow(float64(k+1), s)
		z.cum[k] = total
	}
	return z
}

func (z zipf) draw(rng *rand.Rand) int {
	x := rng.Float64() * z.cum[len(z.cum)-1]
	return z.ids[sort.SearchFloat64s(z.cum, x)]
}

// newStream builds n requests for the workload from the seed alone.
// Every block of 100 requests holds each op exactly Shares[op] times in
// seeded order; users, items and rating values are drawn per request.
// All ids are inside users × items, so no request can be refused.
func newStream(seed int64, w workload, users, items, n int) []request {
	rng := rand.New(rand.NewSource(seed))
	ranking := rand.New(rand.NewSource(popularitySeed))
	uz := newZipf(ranking, users, userZipf)
	iz := newZipf(ranking, items, itemZipf)
	var block []op
	for o, share := range w.Shares {
		for k := 0; k < share; k++ {
			block = append(block, op(o))
		}
	}
	reqs := make([]request, 0, n)
	for len(reqs) < n {
		rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		for _, o := range block {
			if len(reqs) == n {
				break
			}
			reqs = append(reqs, newRequest(rng, o, uz, iz))
		}
	}
	return reqs
}

func newRequest(rng *rand.Rand, o op, uz, iz zipf) request {
	r := request{op: o, user: uz.draw(rng), item: iz.draw(rng)}
	stars := func() float64 { return float64(1 + rng.Intn(5)) }
	switch o {
	case opPredict:
		r.target = "/predict?user=" + strconv.Itoa(r.user) + "&item=" + strconv.Itoa(r.item)
	case opRecommend:
		r.target = "/recommend?user=" + strconv.Itoa(r.user) + "&n=" + strconv.Itoa(recommendN)
	case opRate:
		r.rating = stars()
		r.target = "/rate"
		r.body = appendRating(nil, cell{r.user, r.item, r.rating})
	case opRate16:
		r.target = "/rate"
		r.body = []byte{'['}
		for k := 0; k < groupSize; k++ {
			c := cell{uz.draw(rng), iz.draw(rng), stars()}
			r.cells = append(r.cells, c)
			if k > 0 {
				r.body = append(r.body, ',')
			}
			r.body = appendRating(r.body, c)
		}
		r.body = append(r.body, ']')
	case opBatch:
		r.target = "/predict/batch"
		r.body = []byte(`{"pairs":[`)
		for k := 0; k < groupSize; k++ {
			c := cell{user: uz.draw(rng), item: iz.draw(rng)}
			r.cells = append(r.cells, c)
			if k > 0 {
				r.body = append(r.body, ',')
			}
			r.body = append(r.body, fmt.Sprintf(`{"user":%d,"item":%d}`, c.user, c.item)...)
		}
		r.body = append(r.body, "]}"...)
	}
	return r
}

func appendRating(b []byte, c cell) []byte {
	return append(b, fmt.Sprintf(`{"user":%d,"item":%d,"rating":%g}`, c.user, c.item, c.rating)...)
}

// newTail builds the single /rate calls every run ends with. Its seed
// is derived from the run's, so it does not shift the measured stream.
func newTail(seed int64, users, items int) []request {
	return newStream(seed+1, workload{Shares: [numOps]int{opRate: 100}}, users, items, tailWrites)
}

// streamFingerprint hashes what would go on the wire, in order.
func streamFingerprint(reqs []request) string {
	h := sha256.New()
	for i := range reqs {
		fmt.Fprintf(h, "%d %s %s\n", reqs[i].op, reqs[i].target, reqs[i].body)
	}
	return hex.EncodeToString(h.Sum(nil))
}
