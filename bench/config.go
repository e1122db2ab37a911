package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"cfsf/internal/synth"
)

// Every rate, share and duration of the benchmark is a constant in this
// file. Nothing is calibrated at run time: two commits measured with the
// same flags see the same offered load, request for request.
const (
	// openShare is the part of -seconds spent in the open-loop phase;
	// the rest is the nominal length of the closed-loop phase.
	openShare = 0.8
	// openConns is the number of keep-alive connections the open loop
	// sends on. Independent users do not wait for each other, so it is
	// well above the requests in flight at the offered rates; the closed
	// loop uses one connection per CPU instead.
	openConns = 8
	// setupTrials is how many times a run boots a fresh server; setup_s
	// is their median and the last one serves the run.
	setupTrials = 3

	recommendN = 10  // /recommend?n=
	groupSize  = 16  // pairs per /predict/batch, ratings per /rate array
	userZipf   = 1.0 // skew of the user popularity ranking
	itemZipf   = 0.8 // skew of the item popularity ranking

	// checkEvery is the sampling period of the body checks on reads (the
	// status of every response is checked; /rate bodies are all parsed,
	// their sequence numbers feed the durability check).
	checkEvery = 10
	// Every run ends its traffic with tailWrites single /rate calls after
	// a snapshot: the log tail that recovery replays, the same work on
	// every workload. tailRPS paces them slowly enough that each rating
	// is applied before the next arrives, so for a mix without writes
	// they also time the bare acknowledgement — decode, journal, fsync.
	tailWrites = 200
	tailRPS    = 100
	// maxSchedLagMS is the generator lateness (p95) above which a run is
	// reported invalid: the offered load was not the configured one.
	maxSchedLagMS = 1.0

	readyTimeout   = 60 * time.Second
	drainTimeout   = 60 * time.Second
	requestTimeout = 30 * time.Second
)

// op is one kind of API call. rate is a single-object POST /rate, rate16
// the array form with groupSize entries.
type op int

const (
	opPredict op = iota
	opRecommend
	opRate
	opRate16
	opBatch
	numOps
)

var opNames = [numOps]string{"predict", "recommend", "rate", "rate16", "batch"}

func (o op) String() string { return opNames[o] }

func (o op) isWrite() bool { return o == opRate || o == opRate16 }

// opGroups are the four operations metrics are named after: the op each
// is measured on (rate: the single-object form) and the name the server's
// /metrics knows its endpoint by.
var opGroups = []struct {
	name     string
	op       op
	endpoint string
}{
	{"predict", opPredict, "GET /predict"},
	{"recommend", opRecommend, "GET /recommend"},
	{"rate", opRate, "POST /rate"},
	{"batch", opBatch, "POST /predict/batch"},
}

// workload is one traffic mix. Shares are per cent and sum to 100; the
// stream places exactly that many of each op in every block of 100
// requests, so the offered work does not vary with the seed.
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Shares[op] is the op's share of the measured mix in per cent.
	Shares [numOps]int `json:"shares"`
	// RPS is the open-loop rate.
	RPS int `json:"rps"`
	// ClosedPerSecond sizes the closed-loop phase: it sends this many
	// requests for every second of its nominal length, however long they
	// take. It is about what nproc clients get through on this machine.
	ClosedPerSecond int `json:"closed_per_second"`
	// WarmUsers is how many users the warm-up pass visits. A read-only
	// mix needs every user warm; a mix with writes loses its caches to the
	// first apply, so its pass only measures what a cold start costs.
	WarmUsers int `json:"warm_users"`
	// MidSnapshot asks for a snapshot halfway through the open loop, so
	// that the snapshot competes with traffic. The server skips a
	// snapshot while its queue is mid-drain; the request is repeated
	// every 10 ms until one is taken.
	MidSnapshot bool `json:"mid_snapshot"`
	// LadderN is how many requests of the stream the traced ladder
	// replays; LadderWarm replays them once untimed first, so the timed
	// pass sees the caches the warmed-up server would have.
	LadderN    int  `json:"ladder_n"`
	LadderWarm bool `json:"ladder_warm"`
}

var workloads = []workload{
	{
		Name:            "read_hot",
		Why:             "reads only, every cache warm: handler, JSON and socket work dominate; cold-path core changes must not move it",
		Shares:          [numOps]int{opPredict: 70, opRecommend: 25, opBatch: 5},
		RPS:             1000,
		ClosedPerSecond: 6000,
		WarmUsers:       500,
		LadderN:         600,
		LadderWarm:      true,
	},
	{
		Name:            "mixed",
		Why:             "one request in five is a write, so reads are cold: exact scans and applies dominate; handler savings are noise",
		Shares:          [numOps]int{opPredict: 55, opRecommend: 20, opRate: 20, opBatch: 5},
		RPS:             50,
		ClosedPerSecond: 200,
		WarmUsers:       100,
		LadderN:         300,
	},
	{
		Name:            "write_recover",
		Why:             "48 ratings a second in singles and arrays of 16, with a snapshot under load and a SIGKILL: WAL, micro-batching, apply and replay dominate; a read gain bought with apply cost shows",
		Shares:          [numOps]int{opRate: 40, opRate16: 5, opPredict: 25, opRecommend: 25, opBatch: 5},
		RPS:             40,
		ClosedPerSecond: 130,
		WarmUsers:       100,
		MidSnapshot:     true,
		LadderN:         200,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// serverFlags are the flags cfsf-server is started with besides -addr,
// -data and -data-dir. Everything else stays at the server's default:
// -fsync always, -apply-mode serial, C=30.
var serverFlags = []string{"-snapshot-every", "0"}

// datasetConfig is the fixed fixture every run trains on: the paper's
// Table I shape. It does not follow -seed — K-means needs 101 sweeps on
// one synthetic draw and 5 on the next, which would put a 4× spread into
// setup_s that no change to the code caused. -seed drives the traffic.
func datasetConfig() synth.Config { return synth.DefaultConfig() }

// resolvedConfig is everything that decides what a run measures. Its
// hash is printed and stored with the numbers; runs with different
// hashes are not comparable.
type resolvedConfig struct {
	Workload     workload     `json:"workload"`
	Seed         int64        `json:"seed"`
	Seconds      int          `json:"seconds"`
	Trace        bool         `json:"trace"`
	OpenSeconds  float64      `json:"open_seconds"`
	CloseSeconds float64      `json:"closed_seconds"`
	OpenConns    int          `json:"open_conns"`
	SetupTrials  int          `json:"setup_trials"`
	Dataset      synth.Config `json:"dataset"`
	ServerFlags  []string     `json:"server_flags"`
	NProc        int          `json:"nproc"`
	GoVersion    string       `json:"go_version"`
	Commit       string       `json:"commit"`
	StreamSHA256 string       `json:"stream_sha256"`
}

func resolveConfig(w workload, seed int64, seconds int, trace bool, commit string) resolvedConfig {
	open := float64(seconds) * openShare
	closed := float64(seconds) - open
	trials := setupTrials
	if trace {
		// The traced run reads the server's own counters around a shorter
		// open loop and spends the rest of its time in the ladder.
		open, closed, trials = float64(seconds)/2, 0, 1
	}
	return resolvedConfig{
		Workload:     w,
		Seed:         seed,
		Seconds:      seconds,
		Trace:        trace,
		OpenSeconds:  open,
		CloseSeconds: closed,
		OpenConns:    openConns,
		SetupTrials:  trials,
		Dataset:      datasetConfig(),
		ServerFlags:  serverFlags,
		NProc:        runtime.NumCPU(),
		GoVersion:    runtime.Version(),
		Commit:       commit,
	}
}

// Both traffic phases send whole blocks of 100 requests, at least one,
// so that a phase holds every op exactly in its share: the ratings a run
// acknowledges then depend on the workload and -seconds, not on the seed.
func wholeBlocks(n float64) int { return max(1, int(n+0.5)/100) * 100 } // +0.5: 26 s × 0.2 is 5.1999… s

func (c resolvedConfig) openCount() int {
	return wholeBlocks(float64(c.Workload.RPS) * c.OpenSeconds)
}

func (c resolvedConfig) closedCount() int {
	return wholeBlocks(float64(c.Workload.ClosedPerSecond) * c.CloseSeconds)
}

func (c resolvedConfig) hash() string {
	b, err := json.Marshal(c)
	if err != nil {
		panic(fmt.Sprintf("bench: marshal config: %v", err)) // plain struct of scalars and strings
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
