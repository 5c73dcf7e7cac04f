package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one child process of the system under test.
type proc struct {
	name string
	cmd  *exec.Cmd
	// addr is the host:port the child announced on its banner line.
	addr string
	// done is closed once the child has been reaped.
	done chan struct{}

	mu     sync.Mutex
	stderr bytes.Buffer
}

func (p *proc) url() string { return "http://" + p.addr }

func (p *proc) captured() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stderr.String()
}

// bootTimeout bounds how long a child may take to print its banner and
// then to answer /v1/healthz.
const bootTimeout = 15 * time.Second

// procs tracks every live child so that a signal can take them all
// down with the benchmark.
var procs struct {
	sync.Mutex
	live map[*proc]struct{}
}

func killAllProcs() {
	procs.Lock()
	var all []*proc
	for p := range procs.live {
		all = append(all, p)
	}
	procs.Unlock()
	for _, p := range all {
		p.stop()
	}
}

// spawn starts bin with args in its own process group, waits for the
// "<name>: listening on <addr>" banner on its stderr and returns once
// healthPath answers 200. If the child dies or never turns healthy the
// error carries everything it wrote to stderr.
func spawn(name, bin, healthPath string, args ...string) (*proc, error) {
	p := &proc{name: name, done: make(chan struct{})}
	p.cmd = exec.Command(bin, args...)
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	pipe, err := p.cmd.StderrPipe()
	if err != nil {
		return nil, fmt.Errorf("%s: stderr pipe: %w", name, err)
	}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("%s: start %s: %w", name, bin, err)
	}
	procs.Lock()
	if procs.live == nil {
		procs.live = make(map[*proc]struct{})
	}
	procs.live[p] = struct{}{}
	procs.Unlock()

	banner := make(chan string, 1) // the reader sends at most once
	go func() {
		marker := name + ": listening on "
		sc := bufio.NewScanner(pipe)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			p.stderr.WriteString(line + "\n")
			p.mu.Unlock()
			if i := strings.Index(line, marker); i >= 0 && !sent {
				sent = true
				banner <- strings.TrimSpace(line[i+len(marker):])
			}
		}
		_, _ = io.Copy(io.Discard, pipe) // a line too long for the scanner: drain so the child never blocks
		_ = p.cmd.Wait()                 // the exit status is reported through captured stderr
		close(p.done)
	}()

	fail := func(what string) (*proc, error) {
		p.stop()
		return nil, fmt.Errorf("%s %s; stderr:\n%s", name, what, p.captured())
	}
	deadline := time.After(bootTimeout)
	select {
	case p.addr = <-banner:
	case <-p.done:
		return fail("exited before announcing its address")
	case <-deadline:
		return fail("never announced its address")
	}
	for {
		resp, err := http.Get(p.url() + healthPath)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		select {
		case <-p.done:
			return fail("died before turning healthy")
		case <-deadline:
			return fail("never turned healthy")
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// stop ends the child's whole process group: SIGTERM, then SIGKILL if
// it has not gone within three seconds. It returns once the child has
// been reaped and is safe to call more than once.
func (p *proc) stop() {
	pid := p.cmd.Process.Pid
	_ = syscall.Kill(-pid, syscall.SIGTERM) // ESRCH once the group is gone
	select {
	case <-p.done:
	case <-time.After(3 * time.Second):
		_ = syscall.Kill(-pid, syscall.SIGKILL)
		<-p.done
	}
	procs.Lock()
	delete(procs.live, p)
	procs.Unlock()
}

// alive reports whether the child is still running.
func (p *proc) alive() bool {
	select {
	case <-p.done:
		return false
	default:
		return true
	}
}

// deployment is the running system of one workload.
type deployment struct {
	servers []*proc
	router  *proc // nil when clients talk to the one server directly
	dir     string
}

// target is the base URL the clients talk to.
func (d *deployment) target() string {
	if d.router != nil {
		return d.router.url()
	}
	return d.servers[0].url()
}

func (d *deployment) all() []*proc {
	out := append([]*proc(nil), d.servers...)
	if d.router != nil {
		out = append(out, d.router)
	}
	return out
}

// stop ends every process and removes the deployment's directory.
func (d *deployment) stop() {
	for _, p := range d.all() {
		p.stop()
	}
	if d.dir != "" {
		_ = os.RemoveAll(d.dir) // a leftover temp dir is harmless and lives under the build dir
	}
}

// checkAlive fails with the captured stderr of the first dead child.
func (d *deployment) checkAlive() error {
	for _, p := range d.all() {
		if !p.alive() {
			return fmt.Errorf("%s died; stderr:\n%s", p.name, p.captured())
		}
	}
	return nil
}

// deploy boots the processes of wl from the snapshot: one afqserver
// with the workload's flags, or Replicas of them with -profile-dir
// behind an afqrouter. tmp is where its directory is made.
func deploy(wl workloadDef, binDir, tmp, snapshot string) (*deployment, error) {
	dir, err := os.MkdirTemp(tmp, "deploy-")
	if err != nil {
		return nil, fmt.Errorf("deployment dir: %w", err)
	}
	d := &deployment{dir: dir}
	for i := 0; i < wl.Replicas; i++ {
		args := []string{"-addr", "127.0.0.1:0", "-snapshot", snapshot}
		if wl.CacheMB != 64 { // 64 is the default: leave default flags alone
			args = append(args, "-cache-mb", strconv.Itoa(wl.CacheMB))
		}
		if wl.Replicas > 1 {
			pdir := filepath.Join(dir, fmt.Sprintf("profiles-%d", i))
			if err := os.Mkdir(pdir, 0o755); err != nil {
				d.stop()
				return nil, fmt.Errorf("profile dir: %w", err)
			}
			args = append(args, "-profile-dir", pdir)
		}
		p, err := spawn("afqserver", filepath.Join(binDir, "afqserver"), "/v1/healthz", args...)
		if err != nil {
			d.stop()
			return nil, err
		}
		d.servers = append(d.servers, p)
	}
	if wl.Replicas > 1 {
		var urls []string
		for _, p := range d.servers {
			urls = append(urls, p.url())
		}
		p, err := spawn("afqrouter", filepath.Join(binDir, "afqrouter"), "/v1/router/healthz",
			"-addr", "127.0.0.1:0", "-replicas", strings.Join(urls, ","))
		if err != nil {
			d.stop()
			return nil, err
		}
		d.router = p
	}
	return d, nil
}

// ---- /proc ----

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat
// times; it is 100 on every Linux platform Go supports.
const clockTick = 100

// procCPUSeconds returns utime+stime of pid.
func procCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStatCPU(string(b))
}

func parseProcStatCPU(stat string) (float64, error) {
	// The command name is parenthesised and may hold spaces; fields
	// count from the closing parenthesis.
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc/<pid>/stat")
	}
	f := strings.Fields(stat[i+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc/<pid>/stat")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64) // field 14
	st, err2 := strconv.ParseFloat(f[12], 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, errors.New("non-numeric times in /proc/<pid>/stat")
	}
	return (ut + st) / clockTick, nil
}

// procPeakRSSMB returns VmHWM of pid in MiB.
func procPeakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(b))
}

func parseVmHWM(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024, nil
				}
			}
		}
	}
	return 0, errors.New("no VmHWM in /proc/<pid>/status")
}

// hostCPU is the first line of /proc/stat: jiffies of all CPUs.
type hostCPU struct{ total, steal float64 }

func readHostCPU() (hostCPU, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}, err
	}
	return parseHostCPU(string(b))
}

func parseHostCPU(stat string) (hostCPU, error) {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}, errors.New("malformed /proc/stat")
	}
	var h hostCPU
	for i, s := range f[1:] {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return hostCPU{}, errors.New("non-numeric /proc/stat")
		}
		if i < 8 { // user..steal; guest times are already inside user
			h.total += v
		}
		if i == 7 {
			h.steal = v
		}
	}
	return h, nil
}

// stealShare is the share of CPU time the hypervisor gave to others
// between two readings.
func stealShare(before, after hostCPU) float64 {
	dt := after.total - before.total
	if dt <= 0 {
		return 0
	}
	return (after.steal - before.steal) / dt
}

// httpGetBody fetches url and returns the body of a 200 answer.
func httpGetBody(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}
