package cluster

import (
	"testing"

	"cfsf/internal/ratings"
	"cfsf/internal/synth"
)

func TestNearestPicksMatchingBlock(t *testing.T) {
	m := blockMatrix(40, 20)
	res, err := run(t, m, Options{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Every user's nearest centroid must be its own cluster (the
	// clustering converged).
	for u := 0; u < m.NumUsers(); u++ {
		if got := res.Nearest(m, u); got != res.Assign[u] {
			t.Fatalf("user %d: Nearest = %d, assigned %d", u, got, res.Assign[u])
		}
	}
}

func TestReassignUsersNewUser(t *testing.T) {
	m := blockMatrix(40, 20)
	res, err := run(t, m, Options{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Grow the matrix with one user who mimics block A (loves the first
	// half of the items).
	b := ratings.NewBuilder(41, 20)
	for u := 0; u < 40; u++ {
		for _, e := range m.UserRatings(u) {
			b.MustAdd(u, int(e.Index), e.Value)
		}
	}
	for i := 0; i < 10; i++ {
		b.MustAdd(40, i, 5)
	}
	for i := 10; i < 20; i++ {
		b.MustAdd(40, i, 1)
	}
	m2 := b.Build()

	updated := res.ReassignUsers(m2, []int{40})
	if len(updated.Assign) != 41 {
		t.Fatalf("assign covers %d users, want 41", len(updated.Assign))
	}
	if updated.Assign[40] != res.Assign[0] {
		t.Errorf("new block-A user assigned cluster %d, block A is %d", updated.Assign[40], res.Assign[0])
	}
	// Existing users keep their clusters.
	for u := 0; u < 40; u++ {
		if updated.Assign[u] != res.Assign[u] {
			t.Fatalf("user %d moved from %d to %d without being listed", u, res.Assign[u], updated.Assign[u])
		}
	}
	// Statistics were recomputed over the new matrix: the new user's
	// ratings appear in its cluster's counts.
	c := updated.Assign[40]
	if updated.Count[c][0] != res.Count[c][0]+1 {
		t.Errorf("cluster %d item 0 count %d, want %d", c, updated.Count[c][0], res.Count[c][0]+1)
	}
	// Original result untouched.
	if len(res.Assign) != 40 {
		t.Error("original result mutated")
	}
}

func TestReassignUsersMembershipConsistent(t *testing.T) {
	m := blockMatrix(30, 12)
	res, err := run(t, m, Options{K: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	updated := res.ReassignUsers(m, []int{0, 5, 29})
	seen := 0
	for c, members := range updated.Members {
		for _, u := range members {
			if updated.Assign[u] != c {
				t.Fatalf("member list inconsistent for user %d", u)
			}
			seen++
		}
	}
	if seen != m.NumUsers() {
		t.Fatalf("members cover %d users, want %d", seen, m.NumUsers())
	}
}

func TestReassignUsersIgnoresOutOfRange(t *testing.T) {
	m := blockMatrix(20, 10)
	res, err := run(t, m, Options{K: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	updated := res.ReassignUsers(m, []int{-5, 1000})
	for u := 0; u < 20; u++ {
		if updated.Assign[u] != res.Assign[u] {
			t.Fatal("out-of-range reassign changed assignments")
		}
	}
}

func TestSilhouetteSeparatedBlocks(t *testing.T) {
	m := blockMatrix(40, 20)
	good, err := run(t, m, Options{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := Silhouette(m, good)
	if s < 0.5 {
		t.Errorf("well-separated blocks silhouette = %.3f, want >= 0.5", s)
	}
	// A deliberately wrong clustering (interleaved users) must score
	// clearly worse.
	bad := &Result{K: 2, Assign: make([]int, 40), Members: make([][]int, 2)}
	for u := 0; u < 40; u++ {
		c := u % 2
		bad.Assign[u] = c
		bad.Members[c] = append(bad.Members[c], u)
	}
	if sb := Silhouette(m, bad); sb >= s {
		t.Errorf("interleaved clustering silhouette %.3f not below true clustering %.3f", sb, s)
	}
}

func TestSilhouetteEdgeCases(t *testing.T) {
	m := blockMatrix(6, 8)
	one, err := run(t, m, Options{K: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s := Silhouette(m, one); s != 0 {
		t.Errorf("K=1 silhouette = %g, want 0", s)
	}
}

// TestSilhouetteDetectsOverClustering: on data generated from 5
// archetypes, the silhouette at a plausible K must clearly beat a badly
// over-specified K (fragmented clusters score poorly), and every score
// must stay within [-1, 1]. (Silhouette does not reliably *peak* at the
// generative K — coarser splits of correlated archetypes can score
// higher — so the test pins the robust direction only.)
func TestSilhouetteDetectsOverClustering(t *testing.T) {
	cfg := smallSynth()
	cfg.Archetypes = 5
	cfg.Users = 90
	cfg.ArchetypeSpread = 0.05
	d := synth.MustGenerate(cfg)
	score := func(k int) float64 {
		res, err := run(t, d.Matrix, Options{K: k, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		s := Silhouette(d.Matrix, res)
		if s < -1 || s > 1 {
			t.Fatalf("silhouette %g out of [-1,1] at K=%d", s, k)
		}
		return s
	}
	atTrue := score(5)
	atHuge := score(30)
	if atTrue <= atHuge {
		t.Errorf("silhouette at K=5 (%.3f) not above over-clustered K=30 (%.3f)", atTrue, atHuge)
	}
}
