package main

import (
	"bytes"
	"fmt"
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

// clockTick is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat. It is 100 on every Linux configuration Go supports.
const clockTick = 10 * time.Millisecond

// lineWatch is the child's stdout or stderr: it waits for the one line
// that announces an address and keeps the last lines for error reports.
type lineWatch struct {
	prefix string // the address follows this text on its line

	mu    sync.Mutex
	buf   []byte
	tail  []string
	found chan string // receives the address once
	sent  bool
}

func newLineWatch(prefix string) *lineWatch {
	return &lineWatch{prefix: prefix, found: make(chan string, 1)}
}

func (w *lineWatch) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf = append(w.buf, p...)
	for {
		i := bytes.IndexByte(w.buf, '\n')
		if i < 0 {
			return len(p), nil
		}
		line := string(w.buf[:i])
		w.buf = w.buf[i+1:]
		if w.tail = append(w.tail, line); len(w.tail) > 20 {
			w.tail = w.tail[1:]
		}
		if _, rest, ok := strings.Cut(line, w.prefix); ok && !w.sent {
			if f := strings.Fields(rest); len(f) > 0 {
				w.sent = true
				w.found <- f[0]
			}
		}
	}
}

func (w *lineWatch) lastLines() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return strings.Join(w.tail, "\n")
}

// child is one running rtled process.
type child struct {
	cmd   *exec.Cmd
	addr  string        // rtled/1 listen address
	admin string        // /metrics address
	boot  time.Duration // exec to the listen line

	waited   chan struct{} // closed when the process has been reaped
	stopOnce sync.Once
}

// children tracks every live child so an interrupted benchmark can reap
// them all.
var children struct {
	mu   sync.Mutex
	live map[*child]struct{}
}

func stopAllChildren() {
	children.mu.Lock()
	var all []*child
	for c := range children.live {
		all = append(all, c)
	}
	children.mu.Unlock()
	for _, c := range all {
		c.stop()
	}
}

// startChild boots rtled on free loopback ports and waits for both of its
// address lines.
func startChild(bin string, args ...string) (*child, error) {
	full := append([]string{"-addr", "127.0.0.1:0", "-http", "127.0.0.1:0"}, args...)
	out := newLineWatch("rtled: listening on ")
	errw := newLineWatch("rtled: serving /metrics and /snapshot on ")
	cmd := exec.Command(bin, full...)
	cmd.Stdout, cmd.Stderr = out, errw
	// Backstop for a benchmark that dies without running its defers.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting rtled: %w", err)
	}
	c := &child{cmd: cmd, waited: make(chan struct{})}
	children.mu.Lock()
	if children.live == nil {
		children.live = make(map[*child]struct{})
	}
	children.live[c] = struct{}{}
	children.mu.Unlock()
	go func() {
		_ = cmd.Wait() // the exit status of a server we signalled carries nothing
		close(c.waited)
	}()

	deadline := time.After(15 * time.Second)
	for c.addr == "" || c.admin == "" {
		select {
		case c.addr = <-out.found:
			c.boot = time.Since(t0)
		case c.admin = <-errw.found:
		case <-c.waited:
			c.stop()
			return nil, fmt.Errorf("rtled %v exited during boot:\n%s", args, errw.lastLines())
		case <-deadline:
			c.stop()
			return nil, fmt.Errorf("rtled %v did not announce its addresses:\n%s", args, errw.lastLines())
		}
	}
	return c, nil
}

// stop reaps the child: SIGTERM, then SIGKILL if it has not drained in
// five seconds. It returns once the process has ended.
func (c *child) stop() {
	c.stopOnce.Do(func() {
		_ = c.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
		select {
		case <-c.waited:
		case <-time.After(5 * time.Second):
			_ = c.cmd.Process.Kill()
			<-c.waited
		}
		children.mu.Lock()
		delete(children.live, c)
		children.mu.Unlock()
	})
}

func (c *child) pid() int { return c.cmd.Process.Pid }

var scrapeClient = &http.Client{Timeout: 5 * time.Second}

// scrape fetches and parses the child's /metrics.
func (c *child) scrape() (promSet, error) {
	resp, err := scrapeClient.Get("http://" + c.admin + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping rtled: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping rtled: %s", resp.Status)
	}
	return parseProm(resp.Body)
}

// cpu returns the child's user and system CPU time. The total comes from
// the scheduler's per-thread run time (/proc/<pid>/task/*/schedstat, in
// ns) when the kernel exposes it, because /proc/<pid>/stat counts in 10 ms
// ticks — coarse enough that short repetitions read identical values; the
// ticks then only split the total into user and system.
func (c *child) cpu() (user, sys time.Duration, err error) {
	proc := "/proc/" + strconv.Itoa(c.pid())
	b, err := os.ReadFile(proc + "/stat")
	if err != nil {
		return 0, 0, fmt.Errorf("reading child CPU: %w", err)
	}
	// The command name (field 2) may hold spaces; fields are counted from
	// the closing parenthesis. utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, 0, fmt.Errorf("reading child CPU: malformed stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("reading child CPU: malformed stat line")
	}
	user, sys = time.Duration(ut)*clockTick, time.Duration(st)*clockTick

	tasks, _ := filepath.Glob(proc + "/task/*/schedstat") // no match: keep the ticks
	var ran time.Duration
	for _, t := range tasks {
		tb, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		if tf := strings.Fields(string(tb)); len(tf) > 0 {
			ns, _ := strconv.ParseInt(tf[0], 10, 64) // a malformed file adds nothing
			ran += time.Duration(ns)
		}
	}
	if ran > 0 && user+sys > 0 {
		user = time.Duration(float64(ran) * float64(user) / float64(user+sys))
		sys = ran - user
	}
	return user, sys, nil
}
