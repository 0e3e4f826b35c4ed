package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one castd process on a loopback port.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	client *http.Client
	logf   *os.File
	exited chan struct{} // closed when the process has been reaped
}

var listenRE = regexp.MustCompile(`msg="castd: listening" addr=(\S+)`)

// startDaemon launches castd with default flags plus extra on an ephemeral
// loopback port and waits until /healthz answers. Its log goes to a file
// under dir.
func startDaemon(bin, dir string, extra ...string) (*daemon, error) {
	logf, err := os.Create(filepath.Join(dir, "castd.log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, extra...)...)
	// A benchmark killed before it can stop the daemon takes it along.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("castd: start: %w", err)
	}
	d := &daemon{cmd: cmd, logf: logf, exited: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		// Copy the log to the file, watching for the resolved address; the
		// pipe closes when castd exits, which ends this goroutine.
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if m := listenRE.FindStringSubmatch(line); m != nil && !sent {
				addr <- m[1]
				sent = true
			}
		}
		_, _ = io.Copy(logf, stderr)
		_ = cmd.Wait()
		close(d.exited)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.exited:
		logf.Close()
		return nil, fmt.Errorf("castd exited before listening; see %s", logf.Name())
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("castd: no listening address within 30s")
	}
	// Two clients share at most two keep-alive connections.
	d.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("castd: /healthz not ready within 30s")
		}
		time.Sleep(time.Millisecond)
	}
}

// stop sends SIGTERM, waits for the process to exit (SIGKILL after 20s)
// and closes the log.
func (d *daemon) stop() {
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	d.logf.Close()
}

func (d *daemon) pid() string { return strconv.Itoa(d.cmd.Process.Pid) }

// put registers a schema text under id.
func (d *daemon) put(id, text string) error {
	req, err := http.NewRequest(http.MethodPut, d.base+"/schemas/"+id, strings.NewReader(text))
	if err != nil {
		return err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return fmt.Errorf("PUT %s: %w", id, err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("PUT %s: %d %s", id, resp.StatusCode, bytes.TrimSpace(body))
	}
	return nil
}

// castReply is the part of castd's cast response the benchmark reads.
type castReply struct {
	Valid bool `json:"valid"`
}

// cast posts body to /cast/src/dst and returns the verdict. err is set for
// transport failures and non-2xx statuses.
func (d *daemon) cast(src, dst string, body []byte) (bool, error) {
	resp, err := d.client.Post(d.base+"/cast/"+src+"/"+dst, "application/xml", bytes.NewReader(body))
	if err != nil {
		return false, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return false, err
	}
	if resp.StatusCode/100 != 2 {
		return false, fmt.Errorf("cast %s/%s: %d %s", src, dst, resp.StatusCode, bytes.TrimSpace(raw))
	}
	var r castReply
	if err := json.Unmarshal(raw, &r); err != nil {
		return false, fmt.Errorf("cast %s/%s: %w", src, dst, err)
	}
	return r.Valid, nil
}

// registryCounters reads castd's registry cache counters.
type registryCounters struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Compiles  int64 `json:"compiles"`
	Evictions int64 `json:"evictions"`
}

func (d *daemon) counters() (registryCounters, error) {
	resp, err := d.client.Get(d.base + "/metrics.json")
	if err != nil {
		return registryCounters{}, err
	}
	defer resp.Body.Close()
	var body struct {
		Cache registryCounters `json:"cache"`
	}
	err = json.NewDecoder(resp.Body).Decode(&body)
	return body.Cache, err
}
