package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one acutemon-ingestd process.
type daemon struct {
	cmd     *exec.Cmd
	url     string // http://host:port
	tcpAddr string // raw-TCP listener, fleet-tcp only
	exited  chan struct{}
	waitErr error
}

// buildDaemon compiles cmd/acutemon-ingestd from the checkout.
func buildDaemon(root, out string) error {
	cmd := exec.Command("go", "build", "-o", out, "./cmd/acutemon-ingestd")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("build acutemon-ingestd: %w", err)
	}
	return nil
}

// freePort returns a loopback port nothing listens on right now.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// daemonArgs lays out the daemon's flags: defaults except the
// addresses (-addr, and -tcp-addr on the raw-TCP wire).
func daemonArgs(w *workload) (args []string, addr, tcpAddr string, err error) {
	if addr, err = freePort(); err != nil {
		return nil, "", "", err
	}
	args = []string{"-addr", addr}
	if w.wire == wireTCP {
		if tcpAddr, err = freePort(); err != nil {
			return nil, "", "", err
		}
		args = append(args, "-tcp-addr", tcpAddr)
	}
	return args, addr, tcpAddr, nil
}

// startDaemon launches one daemon with its output in logPath.
func startDaemon(bin string, args []string, addr, tcpAddr, logPath string) (*daemon, error) {
	log, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = log, log
	// A daemon must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, err
	}
	d := &daemon{cmd: cmd, url: "http://" + addr, tcpAddr: tcpAddr, exited: make(chan struct{})}
	go func() {
		d.waitErr = cmd.Wait()
		log.Close()
		close(d.exited)
	}()
	return d, nil
}

// stop sends SIGTERM (the daemon drains and exits) and waits; a daemon
// that does not exit in time is killed.
func (d *daemon) stop() error {
	select {
	case <-d.exited:
		return fmt.Errorf("daemon %s exited early: %v", d.url, d.waitErr)
	default:
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
		return nil
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
		return fmt.Errorf("daemon %s did not drain within 20s; killed", d.url)
	}
}

// getJSON fetches url into v.
func getJSON(ctx context.Context, c *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// waitReady polls /healthz until the daemon answers 200.
func (d *daemon) waitReady(ctx context.Context, c *http.Client) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		var h map[string]any
		err := getJSON(ctx, c, d.url+"/healthz", &h)
		if err == nil {
			return nil
		}
		select {
		case <-d.exited:
			return fmt.Errorf("daemon %s exited during start: %v", d.url, d.waitErr)
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon %s not ready: %w", d.url, err)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// scrape reads /metrics into name → value.
func scrape(ctx context.Context, c *http.Client, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if f, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = f
		}
	}
	return out, sc.Err()
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
