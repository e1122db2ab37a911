package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// janitor owns everything a run leaves behind — spawned servers and
// scratch directories — so that every exit path (return, failed check,
// signal, panic) ends with the same sweep.
type janitor struct {
	mu    sync.Mutex
	procs []*serverProc
	dirs  []string
}

func (j *janitor) addDir(dir string) {
	j.mu.Lock()
	j.dirs = append(j.dirs, dir)
	j.mu.Unlock()
}

func (j *janitor) addProc(p *serverProc) {
	j.mu.Lock()
	j.procs = append(j.procs, p)
	j.mu.Unlock()
}

// sweep kills and reaps every server and removes every directory. It is
// safe to call more than once and from the signal goroutine.
func (j *janitor) sweep() {
	j.mu.Lock()
	procs, dirs := j.procs, j.dirs
	j.procs, j.dirs = nil, nil
	j.mu.Unlock()
	for _, p := range procs {
		p.kill()
	}
	for _, d := range dirs {
		_ = os.RemoveAll(d) // scratch under bench/out; a leftover is harmless and gitignored
	}
}

// serverProc is one spawned cfsf-server. The address and argument
// vector survive kill, so restart recovers over the same data directory
// under the same flags.
type serverProc struct {
	bin     string
	args    []string
	addr    string
	dataDir string
	stderr  io.Writer

	mu  sync.Mutex
	cmd *exec.Cmd
}

func freeAddr() (string, error) {
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

// spawnServer starts cfsf-server on a free loopback port with only the
// generated inputs: the u.data file, a data directory and serverFlags.
func spawnServer(j *janitor, bin, udata, dataDir string, stderr io.Writer) (*serverProc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", addr, "-data", udata, "-data-dir", dataDir}, serverFlags...)
	p := &serverProc{bin: bin, args: args, addr: addr, dataDir: dataDir, stderr: stderr}
	j.addProc(p)
	return p, p.start()
}

func (p *serverProc) start() error {
	cmd := exec.Command(p.bin, p.args...)
	cmd.Stdout, cmd.Stderr = p.stderr, p.stderr
	// Should this process die without sweeping (SIGKILL, a panic on
	// another goroutine), the kernel takes the server down with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start %s: %w", p.bin, err)
	}
	p.mu.Lock()
	p.cmd = cmd
	p.mu.Unlock()
	return nil
}

func (p *serverProc) url() string { return "http://" + p.addr }

func (p *serverProc) pid() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cmd == nil {
		return 0
	}
	return p.cmd.Process.Pid
}

// kill delivers SIGKILL — no drain, no final snapshot — and waits until
// the process has ended. A server that is not running is left alone.
func (p *serverProc) kill() {
	p.mu.Lock()
	cmd := p.cmd
	p.cmd = nil
	p.mu.Unlock()
	if cmd == nil {
		return
	}
	_ = cmd.Process.Kill() // fails only when the process is already gone
	_ = cmd.Wait()         // the error is the signal just sent
}

// procCPU returns the user+system CPU time the process has used, from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks).
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "stat"))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after ')'.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("proc stat of %d: unexpected format", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("proc stat of %d: bad cpu fields %q %q", pid, f[11], f[12])
	}
	const ticksPerSecond = 100 // USER_HZ, fixed at 100 on every Linux ABI
	return time.Duration(utime+stime) * time.Second / ticksPerSecond, nil
}

// procPeakRSS returns the process's resident-set high-water mark (VmHWM)
// in MiB.
func procPeakRSS(pid int) (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("proc status of %d: bad VmHWM %q", pid, rest)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("proc status of %d: no VmHWM line", pid)
}

// selfCPU returns the CPU time this process (the generator) has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// copyDir copies the regular files under src to the same places under
// dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
}
