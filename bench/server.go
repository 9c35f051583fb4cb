package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverProc is one peelserved child process.
type serverProc struct {
	cmd   *exec.Cmd
	addr  string
	lines chan string // stdout after the listening line; closed at EOF
}

// serverArgs fixes the server's shape: two workers (the host's CPU
// count) and an admission bound high enough that the open-loop workload
// queues instead of being shed, so a stall shows up as latency.
var serverArgs = []string{"-addr", "127.0.0.1:0", "-workers", "2", "-maxjobs", "1024"}

// startServer execs peelserved and waits for its listening line.
func startServer(bin string) (*serverProc, error) {
	cmd := exec.Command(bin, serverArgs...)
	// If peelbench is killed, the server goes with it rather than
	// staying up to answer a later run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start peelserved: %w", err)
	}
	p := &serverProc{cmd: cmd, lines: make(chan string, 16)}
	sc := bufio.NewScanner(out)
	if !sc.Scan() {
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("peelserved exited before listening")
	}
	const prefix = "peelserved: listening on "
	first := sc.Text()
	if !strings.HasPrefix(first, prefix) {
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("peelserved: unexpected first line %q", first)
	}
	p.addr = strings.TrimPrefix(first, prefix)
	go func() {
		defer close(p.lines)
		for sc.Scan() {
			p.lines <- sc.Text()
		}
	}()
	return p, nil
}

// drainStats is peelserved's exit report.
type drainStats struct {
	requests, replies, shed int64
}

// stop sends SIGTERM, waits for the process to exit, and parses its
// "drained:" line. A dirty exit or a broken reply invariant is an error.
func (p *serverProc) stop() (drainStats, error) {
	var st drainStats
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		p.cmd.Process.Kill()
	}
	found := false
	for line := range p.lines {
		if s, ok := parseDrained(line); ok {
			st, found = s, true
		}
	}
	if err := p.cmd.Wait(); err != nil {
		return st, fmt.Errorf("peelserved exit: %w", err)
	}
	if !found {
		return st, fmt.Errorf("peelserved printed no drained line")
	}
	if st.requests != st.replies {
		return st, fmt.Errorf("peelserved: requests %d != replies %d", st.requests, st.replies)
	}
	return st, nil
}

// kill ends the process without a drain.
func (p *serverProc) kill() {
	p.cmd.Process.Kill()
	for range p.lines {
	}
	p.cmd.Wait()
}

// parseDrained parses "peelserved: drained: conns=.. requests=.. replies=.. shed=.. ...".
func parseDrained(line string) (drainStats, bool) {
	const prefix = "peelserved: drained: "
	if !strings.HasPrefix(line, prefix) {
		return drainStats{}, false
	}
	var st drainStats
	seen := 0
	for _, field := range strings.Fields(strings.TrimPrefix(line, prefix)) {
		k, v, ok := strings.Cut(field, "=")
		if !ok {
			continue
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return drainStats{}, false
		}
		switch k {
		case "requests":
			st.requests, seen = n, seen+1
		case "replies":
			st.replies, seen = n, seen+1
		case "shed":
			st.shed, seen = n, seen+1
		}
	}
	return st, seen == 3
}

// clockTick is USER_HZ, the unit of the CPU times in /proc/<pid>/stat;
// Linux fixes it at 100 on every architecture Go supports.
const clockTick = 10 * time.Millisecond

// procCPU returns a process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

// parseStatCPU reads utime and stime (fields 14 and 15). The command
// name in field 2 may hold spaces and parentheses, so fields are counted
// from the last ')'.
func parseStatCPU(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("stat: no command field")
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state), so utime (14) is f[11] and stime (15) f[12].
	if len(f) < 13 {
		return 0, fmt.Errorf("stat: %d fields after command", len(f))
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("stat: bad utime/stime %q %q", f[11], f[12])
	}
	return time.Duration(ut+st) * clockTick, nil
}

// cpuSampler reads a process's CPU time every 50ms, so that CPU can be
// attributed to any interval of a window.
type cpuSampler struct {
	pid   int
	ts    []time.Time
	cpu   []time.Duration
	err   error
	stopc chan struct{}
	done  chan struct{}
}

func startCPUSampler(pid int) *cpuSampler {
	s := &cpuSampler{pid: pid, stopc: make(chan struct{}), done: make(chan struct{})}
	s.sample()
	go func() {
		defer close(s.done)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stopc:
				s.sample()
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *cpuSampler) sample() {
	now := time.Now()
	c, err := procCPU(s.pid)
	if err != nil {
		s.err = err
		return
	}
	s.ts, s.cpu = append(s.ts, now), append(s.cpu, c)
}

// stop ends sampling; at may be called once it returns.
func (s *cpuSampler) stop() error {
	close(s.stopc)
	<-s.done
	return s.err
}

// at interpolates the CPU time at t between the samples around it.
func (s *cpuSampler) at(t time.Time) time.Duration {
	i, _ := slices.BinarySearchFunc(s.ts, t, func(a, b time.Time) int { return a.Compare(b) })
	switch {
	case len(s.ts) == 0:
		return 0
	case i == 0:
		return s.cpu[0]
	case i == len(s.ts):
		return s.cpu[i-1]
	}
	span := s.ts[i].Sub(s.ts[i-1])
	if span <= 0 {
		return s.cpu[i]
	}
	frac := float64(t.Sub(s.ts[i-1])) / float64(span)
	return s.cpu[i-1] + time.Duration(frac*float64(s.cpu[i]-s.cpu[i-1]))
}

// procPeakRSS returns a process's peak resident set size in bytes
// (VmHWM in /proc/<pid>/status).
func procPeakRSS(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(b))
}

func parseVmHWM(status string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		v, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(v)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("status: bad VmHWM line %q", line)
		}
		kb, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("status: bad VmHWM line %q", line)
		}
		return kb << 10, nil
	}
	return 0, fmt.Errorf("status: no VmHWM line")
}
