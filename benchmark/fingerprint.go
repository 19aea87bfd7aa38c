package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"syscall"
)

// fingerprint identifies the host and toolchain a number was measured on.
// Every output file carries one, and two files are only ever compared when
// theirs agree on everything but the revision.
type fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
	NoFile     uint64 `json:"nofile"`
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_rev"`
}

// startProcs is GOMAXPROCS as the runtime chose it, which is what dfid runs
// with too; main raises this process's own afterwards.
var startProcs = runtime.GOMAXPROCS(0)

// hostFingerprint reads the host once: it does not change under a run.
var hostFingerprint = sync.OnceValue(func() fingerprint {
	fp := fingerprint{
		CPUModel: "unknown", Kernel: "unknown", GitRev: "unknown",
		NumCPU: runtime.NumCPU(), GOMAXPROCS: startProcs, GoVersion: runtime.Version(),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				fp.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
		f.Close()
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(b))
	}
	var lim syscall.Rlimit
	if syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim) == nil {
		fp.NoFile = lim.Cur
	}
	// A checkout that is not a repository simply has no revision.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		fp.GitRev = strings.TrimSpace(string(out))
	}
	return fp
})

// sameHost reports whether two fingerprints describe the same host and
// toolchain; the revision is what a comparison is about, so it may differ.
func (fp fingerprint) sameHost(o fingerprint) bool {
	fp.GitRev, o.GitRev = "", ""
	return fp == o
}
