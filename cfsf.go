// Package cfsf is the public API of this repository: a complete Go
// implementation of "An Efficient Collaborative Filtering Approach Using
// Smoothing and Fusing" (Zhang et al., ICPP 2009).
//
// The package re-exports the building blocks a downstream application
// needs — the sparse rating matrix, the CFSF model, the baseline
// algorithms of the paper's evaluation, the Given-N protocol and the MAE
// harness — while the heavy machinery lives in internal/ packages.
//
// Quick start:
//
//	data := cfsf.GenerateSynthetic(cfsf.DefaultSynthConfig())
//	model, err := cfsf.Train(data.Matrix, cfsf.DefaultConfig())
//	if err != nil { ... }
//	rating := model.Predict(user, item)
//	top10 := model.Recommend(user, 10)
package cfsf

import (
	"fmt"
	"io"

	"cfsf/internal/baselines"
	"cfsf/internal/core"
	"cfsf/internal/eval"
	"cfsf/internal/ratings"
	"cfsf/internal/synth"
)

// Core model types.
type (
	// Config holds every CFSF parameter; see DefaultConfig for the
	// paper's setting.
	Config = core.Config
	// Model is a trained CFSF model (immutable, concurrency-safe).
	Model = core.Model
	// Prediction is a fused prediction with its SIR′/SUR′/SUIR′
	// component breakdown.
	Prediction = core.Prediction
	// Recommendation is one ranked item for a user.
	Recommendation = core.Recommendation
	// Pair identifies one (user, item) request in a prediction batch.
	Pair = core.Pair
	// TrainStats reports offline-phase timing and sizes.
	TrainStats = core.TrainStats
	// RatingUpdate feeds Model.Apply, the incremental refresh that folds
	// new ratings into a trained model without a full retrain (paper §VI
	// future work), and Model.WithUpdates, its from-scratch reference.
	RatingUpdate = core.RatingUpdate
)

// Data types.
type (
	// Matrix is the immutable sparse item–user rating matrix.
	Matrix = ratings.Matrix
	// MatrixBuilder accumulates ratings into a Matrix.
	MatrixBuilder = ratings.Builder
	// GivenNSplit is the paper's evaluation protocol (§V-A).
	GivenNSplit = ratings.GivenNSplit
	// Target is one held-out rating to predict.
	Target = ratings.Target
	// SynthConfig parameterises the synthetic MovieLens-like generator.
	SynthConfig = synth.Config
	// SynthDataset is a generated matrix plus its latent ground truth.
	SynthDataset = synth.Dataset
)

// Evaluation types.
type (
	// Predictor is the algorithm contract the evaluation harness runs.
	Predictor = eval.Predictor
	// EvalResult reports MAE/RMSE and timing for one evaluation.
	EvalResult = eval.Result
	// EvalOptions configures Evaluate.
	EvalOptions = eval.Options
)

// DefaultConfig returns the paper's parameter setting
// (C=30, λ=0.8, δ=0.1, K=25, M=95, w=0.35).
func DefaultConfig() Config { return core.DefaultConfig() }

// Train runs the CFSF offline phase on m.
func Train(m *Matrix, cfg Config) (*Model, error) { return core.Train(m, cfg) }

// NewMatrixBuilder returns a builder for a numUsers × numItems matrix on
// the 1..5 scale.
func NewMatrixBuilder(numUsers, numItems int) *MatrixBuilder {
	return ratings.NewBuilder(numUsers, numItems)
}

// ReadUDataFile loads a MovieLens u.data file.
func ReadUDataFile(path string) (*Matrix, error) { return ratings.ReadUDataFile(path) }

// WriteUDataFile writes a matrix in u.data format.
func WriteUDataFile(path string, m *Matrix) error { return ratings.WriteUDataFile(path, m) }

// DefaultSynthConfig mirrors the paper's Table I dataset statistics.
func DefaultSynthConfig() SynthConfig { return synth.DefaultConfig() }

// GenerateSynthetic builds a deterministic MovieLens-like dataset.
// It panics on an invalid config; use GenerateSyntheticErr to handle
// configuration errors.
func GenerateSynthetic(cfg SynthConfig) *SynthDataset { return synth.MustGenerate(cfg) }

// GenerateSyntheticErr is GenerateSynthetic with error reporting.
func GenerateSyntheticErr(cfg SynthConfig) (*SynthDataset, error) { return synth.Generate(cfg) }

// MLSplit reproduces the paper's protocol: the first nTrain users train,
// the last nTest users test with `given` revealed ratings each.
func MLSplit(full *Matrix, nTrain, nTest, given int) (*GivenNSplit, error) {
	return ratings.MLSplit(full, nTrain, nTest, given)
}

// Evaluate fits p on the split and returns MAE/RMSE over the held-out
// targets.
func Evaluate(p Predictor, split *GivenNSplit, opts EvalOptions) (EvalResult, error) {
	return eval.Evaluate(p, split, opts)
}

// Ranking metric types (extension beyond the paper's MAE-only protocol).
type (
	// RankingResult aggregates Precision@N / Recall@N / NDCG@N.
	RankingResult = eval.RankingResult
	// RankingOptions configures EvaluateRanking.
	RankingOptions = eval.RankingOptions
)

// EvaluateRanking measures top-N ranking quality of a fitted predictor
// over a split's held-out items (rated-pool protocol). The predictor
// must already be fitted on split.Matrix.
func EvaluateRanking(p Predictor, split *GivenNSplit, opts RankingOptions) RankingResult {
	return eval.EvaluateRanking(p, split, opts)
}

// CFSFPredictor adapts a Config to the Predictor contract so CFSF runs
// under the same harness as the baselines. After Fit, Model() exposes the
// trained model.
type CFSFPredictor struct {
	cfg Config
	mod *core.Model
}

// NewPredictor returns an unfitted CFSF predictor with the given config.
func NewPredictor(cfg Config) *CFSFPredictor { return &CFSFPredictor{cfg: cfg} }

// Fit trains CFSF on m.
func (p *CFSFPredictor) Fit(m *Matrix) error {
	mod, err := core.Train(m, p.cfg)
	if err != nil {
		return err
	}
	p.mod = mod
	return nil
}

// Predict returns the fused CFSF prediction.
func (p *CFSFPredictor) Predict(u, i int) float64 { return p.mod.Predict(u, i) }

// Model returns the trained model (nil before Fit).
func (p *CFSFPredictor) Model() *Model { return p.mod }

// BaselineNames lists the algorithms available from NewBaseline: first
// the paper's comparators in table order, then the extension baselines
// this repository adds (matrix factorisation, Slope One, damped biases).
func BaselineNames() []string {
	return []string{"sir", "sur", "sf", "scbpcc", "emdp", "pd", "am", "mf", "slopeone", "bias", "svd"}
}

// NewBaseline returns an unfitted baseline predictor by name (see
// BaselineNames). Each is constructed with the defaults used in the
// paper's comparison.
func NewBaseline(name string) (Predictor, error) {
	switch name {
	case "sir":
		return &baselines.SIR{}, nil
	case "sur":
		return baselines.NewSUR(), nil
	case "sf":
		return baselines.NewSF(), nil
	case "scbpcc":
		return baselines.NewSCBPCC(), nil
	case "emdp":
		return baselines.NewEMDP(), nil
	case "pd":
		return baselines.NewPD(), nil
	case "am":
		return baselines.NewAM(), nil
	case "mf":
		return baselines.NewMF(), nil
	case "slopeone":
		return baselines.NewSlopeOne(), nil
	case "bias":
		return baselines.NewBias(), nil
	case "svd":
		return baselines.NewSVDCF(), nil
	default:
		return nil, fmt.Errorf("cfsf: unknown baseline %q (have %v)", name, BaselineNames())
	}
}

// LoadModel reads a model snapshot written with Model.Save.
func LoadModel(r io.Reader) (*Model, error) { return core.Load(r) }

// LoadModelFile reads a model snapshot written with Model.SaveFile.
func LoadModelFile(path string) (*Model, error) { return core.LoadFile(path) }

// ReadRatingsCSVFile loads a MovieLens ratings.csv file
// (userId,movieId,rating[,timestamp] with an optional header row).
func ReadRatingsCSVFile(path string) (*Matrix, error) { return ratings.ReadRatingsCSVFile(path) }

// WriteRatingsCSVFile writes a matrix in ratings.csv format.
func WriteRatingsCSVFile(path string, m *Matrix) error { return ratings.WriteRatingsCSVFile(path, m) }

// ReadRatingsAuto loads a ratings file, dispatching on the extension:
// ".csv" parses the ratings.csv layout, anything else the u.data tabs.
func ReadRatingsAuto(path string) (*Matrix, error) { return ratings.ReadAuto(path) }

// Explanation types: the evidence decomposition behind one prediction
// (Model.Explain).
type (
	// Explanation decomposes one prediction into its item and user
	// evidence.
	Explanation = core.Explanation
	// ItemEvidence is one similar item's contribution to SIR′.
	ItemEvidence = core.ItemEvidence
	// UserEvidence is one like-minded user's contribution to SUR′.
	UserEvidence = core.UserEvidence
)

// Statistics types: paired significance testing and cross-validation.
type (
	// TTestResult is a two-sided paired t-test outcome.
	TTestResult = eval.TTestResult
	// Comparison is a head-to-head evaluation of two methods.
	Comparison = eval.Comparison
	// CVResult aggregates k-fold cross-validation scores.
	CVResult = eval.CVResult
)

// Compare fits two predictors on the same split and tests whether their
// per-target absolute errors differ significantly (paired t-test).
func Compare(a, b Predictor, split *GivenNSplit, opts EvalOptions) (Comparison, error) {
	return eval.Compare(a, b, split, opts)
}

// CrossValidate runs k-fold cross-validation over the matrix's ratings;
// build must return a fresh unfitted predictor per fold.
func CrossValidate(build func() Predictor, m *Matrix, k int, seed int64, opts EvalOptions) (CVResult, error) {
	return eval.CrossValidate(build, m, k, seed, opts)
}
