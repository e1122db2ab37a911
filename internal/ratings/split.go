package ratings

import (
	"fmt"
	"sort"
)

// Target is one held-out rating an evaluation must predict.
type Target struct {
	User   int // user id in the split matrix's coordinate space
	Item   int
	Actual float64
}

// GivenNSplit is the evaluation protocol of the CFSF paper (§V-A): the
// observable matrix contains the full rows of the training users plus only
// the first N ("given") ratings of each test user; every remaining rating
// of a test user is a prediction target.
type GivenNSplit struct {
	// Matrix is the observable item–user matrix: training users first
	// (rows 0..len(TrainUsers)-1) followed by test users with only their
	// given ratings.
	Matrix *Matrix
	// TestUsers lists the test users' row ids inside Matrix.
	TestUsers []int
	// Targets are the held-out ratings to predict.
	Targets []Target
	// Given is the number of revealed ratings per test user.
	Given int
}

// NewGivenN builds a split from the full matrix. trainUsers and testUsers
// are row ids in full; they must be disjoint. For each test user the first
// `given` ratings (in item-id order, deterministic) are revealed and the
// rest become targets. A test user with <= given ratings contributes all
// ratings as given and no targets.
func NewGivenN(full *Matrix, trainUsers, testUsers []int, given int) (*GivenNSplit, error) {
	if given < 0 {
		return nil, fmt.Errorf("ratings: given must be >= 0, got %d", given)
	}
	seen := make(map[int]bool, len(trainUsers))
	for _, u := range trainUsers {
		if u < 0 || u >= full.NumUsers() {
			return nil, fmt.Errorf("ratings: train user %d out of range", u)
		}
		if seen[u] {
			return nil, fmt.Errorf("ratings: duplicate train user %d", u)
		}
		seen[u] = true
	}
	for _, u := range testUsers {
		if u < 0 || u >= full.NumUsers() {
			return nil, fmt.Errorf("ratings: test user %d out of range", u)
		}
		if seen[u] {
			return nil, fmt.Errorf("ratings: user %d in both train and test", u)
		}
		seen[u] = true
	}

	b := NewBuilder(len(trainUsers)+len(testUsers), full.NumItems())
	b.SetScale(full.MinRating(), full.MaxRating())
	add := func(nu int, fullUser, k int, e Entry) {
		if times := full.UserRatingTimes(fullUser); times != nil {
			if err := b.AddWithTime(nu, int(e.Index), e.Value, times[k]); err != nil {
				panic(err)
			}
			return
		}
		b.MustAdd(nu, int(e.Index), e.Value)
	}
	for nu, u := range trainUsers {
		for k, e := range full.UserRatings(u) {
			add(nu, u, k, e)
		}
	}
	split := &GivenNSplit{Given: given}
	for k, u := range testUsers {
		nu := len(trainUsers) + k
		split.TestUsers = append(split.TestUsers, nu)
		row := full.UserRatings(u)
		for j, e := range row {
			if j < given {
				add(nu, u, j, e)
			} else {
				split.Targets = append(split.Targets, Target{User: nu, Item: int(e.Index), Actual: e.Value})
			}
		}
	}
	split.Matrix = b.Build()
	return split, nil
}

// MLSplit reproduces the paper's MovieLens protocol: the first nTrain
// users form the training set (ML_100/200/300) and the last nTest users
// form the test set, revealing `given` ratings each.
func MLSplit(full *Matrix, nTrain, nTest, given int) (*GivenNSplit, error) {
	if nTrain+nTest > full.NumUsers() {
		return nil, fmt.Errorf("ratings: nTrain+nTest = %d exceeds %d users", nTrain+nTest, full.NumUsers())
	}
	train := make([]int, nTrain)
	for i := range train {
		train[i] = i
	}
	test := make([]int, nTest)
	for i := range test {
		test[i] = full.NumUsers() - nTest + i
	}
	return NewGivenN(full, train, test, given)
}

// TruncateTargets returns a copy of the split keeping only targets whose
// user is among the first `frac` fraction of test users (used by the
// Fig. 5 scalability experiment, which grows the testset from 10% to
// 100%). frac is clamped to [0,1].
func (s *GivenNSplit) TruncateTargets(frac float64) *GivenNSplit {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	n := int(float64(len(s.TestUsers))*frac + 0.5)
	keep := make(map[int]bool, n)
	for i := 0; i < n; i++ {
		keep[s.TestUsers[i]] = true
	}
	out := &GivenNSplit{Matrix: s.Matrix, Given: s.Given}
	out.TestUsers = append(out.TestUsers, s.TestUsers[:n]...)
	for _, t := range s.Targets {
		if keep[t.User] {
			out.Targets = append(out.Targets, t)
		}
	}
	return out
}

// MLSplitByTime is the temporal variant of MLSplit: for each test user
// the `given` *earliest* ratings (by timestamp) are revealed and the
// later ratings become targets — the protocol where the task is
// predicting a user's future from their past. It requires a matrix with
// timestamps.
func MLSplitByTime(full *Matrix, nTrain, nTest, given int) (*GivenNSplit, error) {
	if !full.HasTimes() {
		return nil, fmt.Errorf("ratings: MLSplitByTime needs a matrix with timestamps")
	}
	if nTrain+nTest > full.NumUsers() {
		return nil, fmt.Errorf("ratings: nTrain+nTest = %d exceeds %d users", nTrain+nTest, full.NumUsers())
	}
	if given < 0 {
		return nil, fmt.Errorf("ratings: given must be >= 0, got %d", given)
	}

	b := NewBuilder(nTrain+nTest, full.NumItems())
	b.SetScale(full.MinRating(), full.MaxRating())
	for nu := 0; nu < nTrain; nu++ {
		times := full.UserRatingTimes(nu)
		for k, e := range full.UserRatings(nu) {
			if err := b.AddWithTime(nu, int(e.Index), e.Value, times[k]); err != nil {
				return nil, err
			}
		}
	}
	split := &GivenNSplit{Given: given}
	for k := 0; k < nTest; k++ {
		u := full.NumUsers() - nTest + k
		nu := nTrain + k
		split.TestUsers = append(split.TestUsers, nu)
		row := full.UserRatings(u)
		times := full.UserRatingTimes(u)
		// Order this user's ratings by timestamp (stable on ties).
		idx := make([]int, len(row))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool { return times[idx[a]] < times[idx[b]] })
		for rank, ri := range idx {
			e := row[ri]
			if rank < given {
				if err := b.AddWithTime(nu, int(e.Index), e.Value, times[ri]); err != nil {
					return nil, err
				}
			} else {
				split.Targets = append(split.Targets, Target{User: nu, Item: int(e.Index), Actual: e.Value})
			}
		}
	}
	split.Matrix = b.Build()
	return split, nil
}
