package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/pkg/client"
)

// child is a gridd process the harness started. Every child is
// registered so that cleanup can kill and reap whatever is still
// running, whichever way the harness leaves.
type child struct {
	name string
	cmd  *exec.Cmd
	log  string        // file holding the child's stdout and stderr
	done chan struct{} // closed once Wait has returned
}

var children struct {
	sync.Mutex
	list []*child
}

func startChild(name, logPath, bin string, args ...string) (*child, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	c := &child{name: name, cmd: cmd, log: logPath, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status is read from ProcessState by stop
		close(c.done)
	}()
	children.Lock()
	children.list = append(children.list, c)
	children.Unlock()
	return c, nil
}

// stop asks the child to drain (SIGTERM), kills it if it has not gone
// within ten seconds, waits for it, and returns its peak RSS in MB.
func (c *child) stop() float64 {
	_ = c.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-c.done:
	case <-time.After(10 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.done
	}
	ru, ok := c.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// procCPU is the user+system CPU time a live process has used so far,
// read from /proc/<pid>/stat (Linux, whose USER_HZ is 100). A process
// that has gone reads 0.
func procCPU(pid int) time.Duration {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// The command name may hold spaces; the numeric fields follow its
	// closing parenthesis. utime and stime are fields 14 and 15.
	fields := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(fields) < 13 {
		return 0
	}
	utime, _ := strconv.ParseInt(fields[11], 10, 64)
	stime, _ := strconv.ParseInt(fields[12], 10, 64)
	return time.Duration(utime+stime) * (time.Second / 100)
}

// stopAllChildren kills and reaps every child still running.
func stopAllChildren() {
	children.Lock()
	list := children.list
	children.list = nil
	children.Unlock()
	for _, c := range list {
		select {
		case <-c.done:
		default:
			_ = c.cmd.Process.Kill()
			<-c.done
		}
	}
}

// logTail returns the end of the child's log for error messages.
func (c *child) logTail() string {
	b, err := os.ReadFile(c.log)
	if err != nil {
		return ""
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// griddBin is where buildGridd puts the daemon.
func griddBin(root string) string { return filepath.Join(root, buildDir, "gridd") }

// buildGridd compiles cmd/gridd from the checkout. The time is the
// build cache's, not the program's, so it is reported apart from
// setup_s (harness.build_s).
func buildGridd(root string) (time.Duration, error) {
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", griddBin(root), "./cmd/gridd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("go build ./cmd/gridd: %w\n%s", err, out)
	}
	return time.Since(t0), nil
}

// startGridd boots a serving gridd (free-running clock, two executor
// slots, durable store in dataDir with the default flush policy:
// fsync on every append) and waits until /v1/version answers.
func startGridd(e *env, name, dataDir string, extra ...string) (*child, string, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, "", err
	}
	args := append([]string{"-addr", addr, "-dilation", "0", "-max-runs", "2", "-data-dir", dataDir}, extra...)
	c, err := startChild(name, filepath.Join(e.tmp, name+".log"), griddBin(e.root), args...)
	if err != nil {
		return nil, "", err
	}
	base := "http://" + addr
	if err := waitReady(c, base); err != nil {
		return nil, "", err
	}
	return c, base, nil
}

// waitReady polls /v1/version until the daemon answers.
func waitReady(c *child, base string) error {
	cl := client.New(base, client.WithRetries(0))
	deadline := time.Now().Add(15 * time.Second)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		_, err := cl.Version(ctx)
		cancel()
		if err == nil {
			return nil
		}
		select {
		case <-c.done:
			return fmt.Errorf("%s exited during start-up:\n%s", c.name, c.logTail())
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s did not answer /v1/version within 15s: %v\n%s", c.name, err, c.logTail())
		}
		time.Sleep(2 * time.Millisecond)
	}
}
