package loadgen

import (
	"fmt"
	"io"
	"net"
	"os/exec"
	"sync"
	"syscall"
	"time"
)

// ProcOptions configures a self-spawned cfsf-server target.
type ProcOptions struct {
	// ServerBin is the path to a prebuilt cfsf-server binary.
	ServerBin string
	// DataDir is the durability root passed as -data-dir; empty runs
	// the server in memory-only mode (killrecover then has nothing to
	// recover and Validate-level checks in cfsf-loadgen reject it).
	DataDir string
	// Dataset sizes the synthetic matrix the server trains on; it must
	// equal the scenario's Dataset so sampled ids resolve.
	Dataset DatasetConfig
	// GrowthMargin is forwarded as -growth-margin; use
	// Scenario.GrowthMargin().
	GrowthMargin int
	// Fsync is forwarded as -fsync; empty means "always" (the
	// killrecover scenario measures recovery of acknowledged writes, so
	// the default must not lose any).
	Fsync string
	// Stderr receives the server's log output; nil discards it.
	Stderr io.Writer
	// ExtraArgs are appended verbatim to the server's argument vector
	// (after the generated flags, so they win on repeats). The CI smoke
	// uses this to run killrecover with small WAL segments and frequent
	// snapshots ("-wal-segment-bytes 4096 -snapshot-every 400ms"); Restart
	// re-execs the same vector, so recovery runs under the same flags
	// traffic did.
	ExtraArgs []string
	// FollowURL, when set, spawns the server as a read replica
	// (-follow): it bootstraps from the leader instead of training, so
	// the dataset/data-dir/fsync knobs above are not forwarded.
	FollowURL string
	// AdminToken is forwarded as -admin-token (and authenticates the
	// replication stream under FollowURL).
	AdminToken string
	// MaxQPS is forwarded as -max-qps: per-process serving capacity for
	// the scaling benchmark. 0 omits the flag.
	MaxQPS int
}

// ProcTarget runs cfsf-server as a child process. Kill is a real
// SIGKILL — no drain, no final snapshot — and Restart re-execs the same
// argument vector over the same data directory, so recovery exercises
// snapshot load plus WAL-tail replay exactly as a production crash
// would.
type ProcTarget struct {
	opts ProcOptions
	addr string
	args []string

	mu  sync.Mutex
	cmd *exec.Cmd //cfsf:guarded-by mu
}

// SpawnServer picks a free loopback port, starts cfsf-server on it, and
// returns the target. The caller should Runner.Run (which waits for
// readiness) or poll /healthz?ready=1 before sending traffic.
func SpawnServer(opts ProcOptions) (*ProcTarget, error) {
	if opts.ServerBin == "" {
		return nil, fmt.Errorf("spawn: ServerBin is required")
	}
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", addr}
	if opts.FollowURL != "" {
		args = append(args, "-follow", opts.FollowURL)
	} else {
		args = append(args,
			"-synth-users", fmt.Sprint(opts.Dataset.Users),
			"-synth-items", fmt.Sprint(opts.Dataset.Items),
			"-seed", fmt.Sprint(opts.Dataset.Seed),
			"-growth-margin", fmt.Sprint(opts.GrowthMargin),
		)
		if opts.DataDir != "" {
			args = append(args, "-data-dir", opts.DataDir)
		}
		if opts.Fsync != "" {
			args = append(args, "-fsync", opts.Fsync)
		}
	}
	if opts.AdminToken != "" {
		args = append(args, "-admin-token", opts.AdminToken)
	}
	if opts.MaxQPS > 0 {
		args = append(args, "-max-qps", fmt.Sprint(opts.MaxQPS))
	}
	args = append(args, opts.ExtraArgs...)
	t := &ProcTarget{opts: opts, addr: addr, args: args}
	if err := t.start(); err != nil {
		return nil, err
	}
	return t, nil
}

func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("pick port: %w", err)
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		return "", fmt.Errorf("release port: %w", err)
	}
	return addr, nil
}

func (t *ProcTarget) start() error {
	cmd := exec.Command(t.opts.ServerBin, t.args...)
	cmd.Stderr = t.opts.Stderr
	cmd.Stdout = t.opts.Stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start %s: %w", t.opts.ServerBin, err)
	}
	t.mu.Lock()
	t.cmd = cmd
	t.mu.Unlock()
	return nil
}

// URL returns the target base URL; the address survives restarts (the
// child is always told the same -addr).
func (t *ProcTarget) URL() string { return "http://" + t.addr }

// Kill delivers SIGKILL and reaps the child. The server gets no chance
// to drain its queue or write a final snapshot — that is the point.
func (t *ProcTarget) Kill() error {
	t.mu.Lock()
	cmd := t.cmd
	t.cmd = nil
	t.mu.Unlock()
	if cmd == nil || cmd.Process == nil {
		return fmt.Errorf("kill: server not running")
	}
	if err := cmd.Process.Kill(); err != nil {
		return fmt.Errorf("kill server: %w", err)
	}
	_ = cmd.Wait() // reap; the error is the SIGKILL we just sent
	return nil
}

// Restart re-execs the server with the identical argument vector; with
// a data dir set, boot recovers from the newest snapshot plus WAL tail.
func (t *ProcTarget) Restart() error {
	t.mu.Lock()
	running := t.cmd != nil
	t.mu.Unlock()
	if running {
		return fmt.Errorf("restart: server still running (Kill first)")
	}
	return t.start()
}

// Close shuts the child down gracefully: SIGTERM, then SIGKILL if it
// has not exited within 15s.
func (t *ProcTarget) Close() error {
	t.mu.Lock()
	cmd := t.cmd
	t.cmd = nil
	t.mu.Unlock()
	if cmd == nil || cmd.Process == nil {
		return nil
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return nil
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case <-done:
		return nil
	case <-time.After(15 * time.Second):
		_ = cmd.Process.Kill()
		<-done
		return fmt.Errorf("close: server ignored SIGTERM for 15s, killed")
	}
}
