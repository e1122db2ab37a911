package smoothing

import (
	"math/rand"
	"slices"
	"testing"

	"cfsf/internal/cluster"
	"cfsf/internal/ratings"
)

// blockMatrix gives each of groups user groups its own block of items,
// with a stray rating outside it now and then. A user then overlaps few
// clusters' deviations, so most of their Eq. 9 similarities are exactly
// 0 and only the cluster-id tiebreak ranks them.
func blockMatrix(rng *rand.Rand, users, groups, perBlock int) *ratings.Matrix {
	b := ratings.NewBuilder(users, groups*perBlock).SetScale(1, 5)
	for u := 0; u < users; u++ {
		g := u % groups
		for i := 0; i < perBlock; i++ {
			if rng.Float64() < 0.8 {
				b.MustAdd(u, g*perBlock+i, float64(1+rng.Intn(5)))
			}
		}
		if rng.Float64() < 0.3 {
			b.MustAdd(u, rng.Intn(groups*perBlock), float64(1+rng.Intn(5)))
		}
	}
	return b.Build()
}

// TestRefreshIClusterParityWithBuild pins the insertion re-rank to
// BuildICluster — the from-scratch ranking Train uses — on a chain of
// applies over a fixture dense in similarity-0 ties: one affected
// cluster, every cluster affected, a user who changes cluster, and a
// new user. It also checks the sharing contract both ways: a user whose
// ranking came out as before holds the old slices, and the old ranking
// is never written.
func TestRefreshIClusterParityWithBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const users, groups, perBlock = 72, 9, 5
	m := blockMatrix(rng, users, groups, perBlock)
	cl, err := cluster.Run(m, cluster.Options{K: groups, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sm := New(m, cl)
	ic := BuildICluster(sm, 2)

	tied := 0
	for u := range ic.Sim {
		zeros := 0
		for _, v := range ic.Sim[u] {
			if v == 0 {
				zeros++
			}
		}
		if zeros >= 2 {
			tied++
		}
	}
	if tied < users/2 {
		t.Fatalf("only %d of %d users have tied similarities: fixture lost its ties", tied, users)
	}

	type upsert struct {
		user, item int
		value      float64
	}
	onePerCluster := func() []upsert {
		var ups []upsert
		for c := 0; c < cl.K; c++ {
			u := cl.Members[c][0]
			ups = append(ups, upsert{u, int(m.UserRatings(u)[0].Index), 1})
		}
		return ups
	}
	// The mover takes over the whole profile of a user from another cluster.
	mover := cl.Members[0][0]
	var target int
	for u := range cl.Assign {
		if cl.Assign[u] != cl.Assign[mover] && len(m.UserRatings(u)) >= perBlock-1 {
			target = u
			break
		}
	}
	steps := []struct {
		name string
		ups  func() []upsert
		post func(t *testing.T, before, after *cluster.Result, affected map[int]bool)
	}{
		{"one rating", func() []upsert {
			// A nudge to a user already on their nearest centroid, so
			// nobody changes cluster.
			for u := 0; u < users; u++ {
				if cl.Nearest(m, u) == cl.Assign[u] {
					e := m.UserRatings(u)[0]
					return []upsert{{u, int(e.Index), e.Value + 0.25}}
				}
			}
			return nil
		}, func(t *testing.T, _, _ *cluster.Result, affected map[int]bool) {
			if len(affected) != 1 {
				t.Fatalf("affected = %v, want one cluster", affected)
			}
		}},
		{"every cluster", onePerCluster, func(t *testing.T, _, after *cluster.Result, affected map[int]bool) {
			if len(affected) != after.K {
				t.Fatalf("affected = %v, want all %d clusters", affected, after.K)
			}
		}},
		{"user changes cluster", func() []upsert {
			var ups []upsert
			for _, e := range m.UserRatings(mover) {
				ups = append(ups, upsert{mover, int(e.Index), 3}) // flatten the old taste
			}
			for k := 0; k < 3; k++ { // and copy the target's, emphatically
				for _, e := range m.UserRatings(target) {
					ups = append(ups, upsert{mover, int(e.Index), e.Value})
				}
			}
			return ups
		}, func(t *testing.T, before, after *cluster.Result, _ map[int]bool) {
			if before.Assign[mover] == after.Assign[mover] {
				t.Fatalf("user %d stayed in cluster %d: fixture no longer moves a user", mover, before.Assign[mover])
			}
		}},
		{"new user", func() []upsert {
			return []upsert{{m.NumUsers(), 2, 4}, {m.NumUsers(), 3, 1}, {m.NumUsers(), perBlock + 1, 5}}
		}, nil},
	}
	sharedUsers, movedUsers := 0, 0
	for _, st := range steps {
		t.Run(st.name, func(t *testing.T) {
			ups := st.ups()
			nu := m.NumUsers()
			changed := map[int]bool{}
			for _, up := range ups {
				changed[up.user] = true
				nu = max(nu, up.user+1)
			}
			b := ratings.NewBuilder(nu, m.NumItems()).SetScale(1, 5)
			for u := 0; u < m.NumUsers(); u++ {
				for _, e := range m.UserRatings(u) {
					b.MustAdd(u, int(e.Index), e.Value)
				}
			}
			affItems := map[int]bool{}
			for _, up := range ups {
				b.MustAdd(up.user, up.item, up.value)
			}
			m2 := b.Build()
			list := make([]int, 0, len(changed))
			for u := range changed {
				list = append(list, u)
				for _, e := range m2.UserRatings(u) {
					affItems[int(e.Index)] = true
				}
			}
			slices.Sort(list)
			cl2, affected := cl.RefreshUsers(m2, list)
			if st.post != nil {
				st.post(t, cl, cl2, affected)
			}
			sm2 := sm.Refresh(m2, cl2, affected, affItems, 2)

			frozen := &ICluster{}
			for u := range ic.Order {
				frozen.Order = append(frozen.Order, slices.Clone(ic.Order[u]))
				frozen.Sim = append(frozen.Sim, slices.Clone(ic.Sim[u]))
			}
			got := RefreshICluster(ic, sm2, affected, changed, 2)
			requireSameICluster(t, BuildICluster(sm2, 2), got)
			requireSameICluster(t, frozen, ic)
			for u := range ic.Order {
				if changed[u] {
					continue
				}
				same := slices.Equal(ic.Order[u], got.Order[u]) && slices.Equal(ic.Sim[u], got.Sim[u])
				aliased := &ic.Order[u][0] == &got.Order[u][0] && &ic.Sim[u][0] == &got.Sim[u][0]
				if same != aliased {
					t.Fatalf("user %d: ranking unchanged=%v but old slices shared=%v", u, same, aliased)
				}
				if same {
					sharedUsers++
				} else {
					movedUsers++
				}
			}
			m, cl, sm, ic = m2, cl2, sm2, got
		})
	}
	if sharedUsers == 0 || movedUsers == 0 {
		t.Fatalf("shared=%d moved=%d: fixture exercises only one side", sharedUsers, movedUsers)
	}
}
