package rig

import (
	"bufio"
	"bytes"
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

	"github.com/dfi-sdn/dfi/benchmark/gen"
)

// Dfid is one running dfid subprocess: the system under test, started with
// structural flags only (addresses, the policy file, the quarantine
// template name). Whatever it does by default is what gets measured.
type Dfid struct {
	ListenAddr, AdminAddr, SensorAddr string

	cmd    *exec.Cmd
	done   chan struct{} // closed once the process has been reaped
	log    *os.File
	client *http.Client
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer lis.Close()
	return lis.Addr().String(), nil
}

// StartDfid launches binary in front of the controller stub at ctlAddr and
// waits until its admin API answers and reports wantRules policy rules.
func StartDfid(binary, ctlAddr, policyFile, logPath string, wantRules int) (*Dfid, error) {
	d := &Dfid{client: &http.Client{Timeout: 30 * time.Second}}
	var err error
	for _, addr := range []*string{&d.ListenAddr, &d.AdminAddr, &d.SensorAddr} {
		if *addr, err = freeAddr(); err != nil {
			return nil, err
		}
	}
	if d.log, err = os.Create(logPath); err != nil {
		return nil, err
	}
	d.cmd = exec.Command(binary,
		"-listen", d.ListenAddr,
		"-controller", ctlAddr,
		"-admin", d.AdminAddr,
		"-sensor-listen", d.SensorAddr,
		"-policy-file", policyFile,
		"-quarantine-template", gen.QuarantineTemplate,
		"-bootstrap", "default-deny",
	)
	d.cmd.Stdout, d.cmd.Stderr = d.log, d.log
	if err := d.cmd.Start(); err != nil {
		d.log.Close()
		return nil, fmt.Errorf("start dfid: %w", err)
	}
	d.done = make(chan struct{})
	go func() { _ = d.cmd.Wait(); close(d.done) }()
	deadline := time.Now().Add(20 * time.Second)
	for {
		var h struct {
			Status string `json:"status"`
			Rules  int    `json:"rules"`
		}
		if err := d.getJSON("/v1/healthz", &h); err == nil && h.Rules == wantRules {
			// dfid opens its switch listener last; the sessions that follow
			// would otherwise race it.
			if conn, err := net.Dial("tcp", d.ListenAddr); err == nil {
				conn.Close()
				return d, nil
			}
		}
		if time.Now().After(deadline) || d.exited() {
			d.Stop()
			return nil, fmt.Errorf("dfid did not come up with %d rules; see %s", wantRules, logPath)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (d *Dfid) exited() bool {
	select {
	case <-d.done:
		return true
	default:
		return false
	}
}

// Pid is the subprocess id.
func (d *Dfid) Pid() int { return d.cmd.Process.Pid }

// Stop terminates dfid and waits until it has gone.
func (d *Dfid) Stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(3 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
	d.client.CloseIdleConnections()
	d.log.Close()
}

func (d *Dfid) getJSON(path string, v any) error {
	resp, err := d.client.Get("http://" + d.AdminAddr + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// PutPolicy replaces the running policy document through the admin API,
// the one policy-mutation path the benchmark uses.
func (d *Dfid) PutPolicy(body []byte) error {
	req, err := http.NewRequest(http.MethodPut, "http://"+d.AdminAddr+"/v1/policy", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("PUT /v1/policy: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	return nil
}

// PolicyBody is the request body PutPolicy sends for a document.
func PolicyBody(source string) []byte {
	b, _ := json.Marshal(struct {
		Source string `json:"source"`
	}{source})
	return b
}

// Metrics is one scrape of dfid's /v1/metrics: every sample line keyed by
// its name and label set exactly as exposed.
type Metrics map[string]float64

// Scrape reads /v1/metrics once and reports how long the read took.
func (d *Dfid) Scrape() (Metrics, time.Duration, error) {
	start := time.Now()
	resp, err := d.client.Get("http://" + d.AdminAddr + "/v1/metrics")
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	m := Metrics{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			m[line[:i]] = v
		}
	}
	return m, time.Since(start), sc.Err()
}

// HistogramQuantile estimates quantile q of the observations a histogram
// family took between two scrapes, in seconds, by linear interpolation
// inside the bucket that holds it. labels is the family's label prefix as
// exposed (`stage="total",`) or empty. It returns 0 when nothing was
// observed in between.
func HistogramQuantile(before, after Metrics, family, labels string, q float64) float64 {
	prefix := family + "_bucket{" + labels + `le="`
	type bucket struct{ le, n float64 }
	var bs []bucket
	for k, v := range after {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		leText := strings.TrimSuffix(k[len(prefix):], `"}`)
		if leText == "+Inf" {
			continue
		}
		le, err := strconv.ParseFloat(leText, 64)
		if err != nil {
			continue
		}
		bs = append(bs, bucket{le, v - before[k]})
	}
	for i := 1; i < len(bs); i++ { // insertion sort: a handful of buckets
		for j := i; j > 0 && bs[j].le < bs[j-1].le; j-- {
			bs[j], bs[j-1] = bs[j-1], bs[j]
		}
	}
	if len(bs) == 0 {
		return 0
	}
	total := bs[len(bs)-1].n
	if inf := prefix + `+Inf"}`; after[inf]-before[inf] > total {
		total = after[inf] - before[inf]
	}
	if total <= 0 {
		return 0
	}
	rank, lo, prev := q*total, 0.0, 0.0
	for _, b := range bs {
		if b.n >= rank && b.n > prev {
			return lo + (b.le-lo)*(rank-prev)/(b.n-prev)
		}
		lo, prev = b.le, b.n
	}
	return bs[len(bs)-1].le
}

// ProcStat is a reading of the subprocess's accounting in /proc.
type ProcStat struct {
	CPU    time.Duration // time on a CPU so far, all threads
	RSSKB  int64         // resident set now
	PeakKB int64         // resident set high-water mark (VmHWM)
}

// Proc reads dfid's CPU time and memory from /proc. CPU time is the
// scheduler's own nanosecond count, summed over dfid's threads: the
// utime/stime of /proc/<pid>/stat are sampled at the timer tick and carry
// several percent of sampling noise over a phase of a few hundred
// milliseconds.
func (d *Dfid) Proc() (ProcStat, error) {
	var ps ProcStat
	dir := filepath.Join("/proc", strconv.Itoa(d.Pid()))
	tasks, err := os.ReadDir(filepath.Join(dir, "task"))
	if err != nil {
		return ps, err
	}
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, "task", t.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		if f := strings.Fields(string(b)); len(f) > 0 {
			ns, _ := strconv.ParseInt(f[0], 10, 64)
			ps.CPU += time.Duration(ns)
		}
	}
	status, err := os.ReadFile(filepath.Join(dir, "status"))
	if err != nil {
		return ps, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		switch f[0] {
		case "VmRSS:":
			ps.RSSKB, _ = strconv.ParseInt(f[1], 10, 64)
		case "VmHWM:":
			ps.PeakKB, _ = strconv.ParseInt(f[1], 10, 64)
		}
	}
	return ps, nil
}
