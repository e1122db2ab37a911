package similarity

import (
	"math"

	"cfsf/internal/mathx"
	"cfsf/internal/parallel"
	"cfsf/internal/ratings"
)

// BuildGISWithContent builds a Global Item Similarity matrix that blends
// collaborative similarity with item-attribute similarity:
//
//	sim(a,b) = (1−blend)·simCF(a,b) + blend·cosine(features_a, features_b)
//
// This is the paper's §VI future work ("attributes of items ... may
// reflect shifts of user preferences") realised: content similarity is
// available for every item pair — including cold items with few or no
// co-ratings, where pure PCC is undefined — so the GIS no longer goes
// blind on the long tail. features[i] is item i's attribute vector (e.g.
// a genre one-hot); items with a zero vector contribute no content term.
//
// blend = 0 degenerates to BuildGIS; blend = 1 is a pure content index.
func BuildGISWithContent(m *ratings.Matrix, features [][]float64, blend float64, opts GISOptions) *GIS {
	if blend <= 0 || len(features) == 0 {
		return BuildGIS(m, opts)
	}
	if blend > 1 {
		blend = 1
	}
	q := m.NumItems()

	// Pre-normalise feature vectors so pairwise cosine is a dot product.
	norm := make([][]float64, q)
	for i := 0; i < q; i++ {
		if i >= len(features) || len(features[i]) == 0 {
			continue
		}
		var ss float64
		for _, v := range features[i] {
			ss += v * v
		}
		if ss == 0 {
			continue
		}
		inv := 1 / math.Sqrt(ss)
		nf := make([]float64, len(features[i]))
		for k, v := range features[i] {
			nf[k] = v * inv
		}
		norm[i] = nf
	}

	g := &GIS{neighbors: make([][]mathx.Scored, q), opts: opts}
	parallel.ForChunked(q, opts.Workers, func(lo, hi int) {
		cf := make([]float64, q)
		hasCF := make([]bool, q)
		scratch := newCandidateScratch(q)
		var list []mathx.Scored
		for a := lo; a < hi; a++ {
			// Collaborative side: the full candidate list for a.
			for i := range cf {
				cf[i], hasCF[i] = 0, false
			}
			list = candidateList(m, a, opts, scratch, list[:0])
			for _, n := range list {
				cf[n.Index] = n.Score
				hasCF[n.Index] = true
			}

			top := mathx.NewTopK(topNOrAll(opts.TopN, q-1))
			fa := norm[a]
			for b := 0; b < q; b++ {
				if b == a {
					continue
				}
				content := 0.0
				if fa != nil && norm[b] != nil {
					for k := range fa {
						if k < len(norm[b]) {
							content += fa[k] * norm[b][k]
						}
					}
				}
				sim := blend * content
				if hasCF[b] {
					sim += (1 - blend) * cf[b]
				}
				if !(sim > 0) || sim < opts.Threshold {
					continue
				}
				top.Push(int32(b), sim)
			}
			g.neighbors[a] = top.Sorted()
		}
	})
	return g
}
