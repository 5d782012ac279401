package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"time"
)

// childEnv marks a process started as the benchmark's server child. The
// binary re-executes itself (os.Executable) with it set; the unit tests'
// TestMain honours it too, so `go test` can spawn the same child.
const childEnv = "YSMART_BENCH_CHILD"

// child is a running `bench serve` process and its control endpoint.
type child struct {
	cmd  *exec.Cmd
	in   io.WriteCloser
	out  *bufio.Reader
	addr string
	pid  int

	mu    sync.Mutex // serialises control round trips
	once  sync.Once
	owner *procs
}

// procs tracks the live server children so that an interrupt reaps them.
type procs struct {
	mu   sync.Mutex
	live map[*child]bool
}

func newProcs() *procs { return &procs{live: map[*child]bool{}} }

// stopAll stops every live child (the signal handler's job).
func (p *procs) stopAll() {
	p.mu.Lock()
	var cs []*child
	for c := range p.live {
		cs = append(cs, c)
	}
	p.mu.Unlock()
	for _, c := range cs {
		c.stop()
	}
}

// start spawns the server child for a workload and waits until it has
// generated its datasets and is listening.
func (p *procs) start(s *spec, seed int64) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "serve", "--workload", s.name, "--seed", strconv.FormatInt(seed, 10))
	cmd.Env = append(os.Environ(), childEnv+"=1", "GOMAXPROCS=2")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("spawn server child: %w", err)
	}
	c := &child{cmd: cmd, in: in, out: bufio.NewReader(out), owner: p}
	p.mu.Lock()
	p.live[c] = true
	p.mu.Unlock()
	var ready childReady
	if err := c.readReply(&ready); err != nil {
		c.stop()
		return nil, fmt.Errorf("server child did not come up: %w", err)
	}
	c.addr, c.pid = ready.Addr, ready.Pid
	return c, nil
}

func (c *child) readReply(v any) error {
	line, err := c.out.ReadBytes('\n')
	if err != nil {
		return err
	}
	return json.Unmarshal(line, v)
}

// call performs one control round trip.
func (c *child) call(req ctlRequest, reply any) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, err := json.Marshal(req)
	if err != nil {
		return err
	}
	if _, err := c.in.Write(append(b, '\n')); err != nil {
		return fmt.Errorf("control %s: %w", req.Op, err)
	}
	if err := c.readReply(reply); err != nil {
		return fmt.Errorf("control %s reply: %w", req.Op, err)
	}
	return nil
}

func (c *child) register(version int) error {
	return c.call(ctlRequest{Op: "register", Version: version}, &struct{}{})
}

// stats reads the child's resource counters; gc forces a collection
// first, hist adds the admission-wait histogram totals.
func (c *child) stats(gc, hist bool) (childStats, error) {
	var st childStats
	err := c.call(ctlRequest{Op: "stats", GC: gc, Hist: hist}, &st)
	return st, err
}

// stop ends the child and reaps it: closing stdin makes serveMain return
// and shut the server down; a child that does not exit is killed. Safe to
// call more than once and from the signal handler.
func (c *child) stop() {
	c.once.Do(func() {
		c.in.Close()
		done := make(chan struct{})
		go func() {
			_ = c.cmd.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			_ = c.cmd.Process.Kill()
			<-done
		}
		c.owner.mu.Lock()
		delete(c.owner.live, c)
		c.owner.mu.Unlock()
	})
}
