package dfi_test

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestProcessesEndToEnd builds the real binaries and runs the deployment
// the README documents: controllerd ← dfid ← cbench, administered with
// dfictl (including a policy document via `dfictl policy apply`).
func TestProcessesEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns processes")
	}
	binDir := t.TempDir()
	for _, name := range []string{"dfid", "controllerd", "cbench", "dfictl"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(binDir, name), "./cmd/"+name)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, out)
		}
	}

	ctlAddr := freeAddr(t)
	dfiAddr := freeAddr(t)
	adminAddr := freeAddr(t)

	ctld := startProc(t, filepath.Join(binDir, "controllerd"), "-listen", ctlAddr)
	defer stopProc(ctld)
	waitListening(t, ctlAddr)

	dfid := startProc(t, filepath.Join(binDir, "dfid"),
		"-listen", dfiAddr, "-controller", ctlAddr, "-admin", adminAddr)
	defer stopProc(dfid)
	waitListening(t, dfiAddr)
	waitListening(t, adminAddr)

	dfictl := func(args ...string) string {
		t.Helper()
		full := append([]string{"-admin", "http://" + adminAddr}, args...)
		out, err := exec.Command(filepath.Join(binDir, "dfictl"), full...).CombinedOutput()
		if err != nil {
			t.Fatalf("dfictl %v: %v\n%s", args, err, out)
		}
		return string(out)
	}

	// Policy administration over the real admin API: apply a policy file
	// through dfictl, then read it and its rules back.
	policyPath := filepath.Join(binDir, "corp.policy")
	policyText := "pdp corp priority 60\nallow proto tcp from host a to host b\nallow from user alice to host mail\n"
	if err := os.WriteFile(policyPath, []byte(policyText), 0o644); err != nil {
		t.Fatal(err)
	}
	if out := dfictl("policy", "apply", policyPath); !strings.Contains(out, "2 rule(s) inserted, 0 revoked") {
		t.Fatalf("apply output: %s", out)
	}
	if out := dfictl("policy", "show"); !strings.Contains(out, "pdp corp priority 60") {
		t.Fatalf("policy show output: %s", out)
	}
	if out := dfictl("rules"); !strings.Contains(out, "alice") {
		t.Fatalf("rules output missing the applied rule:\n%s", out)
	}

	// cbench drives real packet-ins through dfid to the controller.
	out, err := exec.Command(filepath.Join(binDir, "cbench"),
		"-connect", dfiAddr, "-mode", "latency", "-flows", "15").CombinedOutput()
	if err != nil {
		t.Fatalf("cbench: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "latency over 15 flows") {
		t.Fatalf("cbench output: %s", out)
	}

	// The control plane saw and decided the flows.
	stats := dfictl("stats")
	if !strings.Contains(stats, "pcp processed:    15") {
		t.Fatalf("stats after cbench:\n%s", stats)
	}
	if out := dfictl("spans"); !strings.Contains(out, "pcp     admission") {
		t.Fatalf("spans after cbench carry no admission:\n%s", out)
	}
	// cbench has exited: its switch session must have been detached (the
	// proxy keeps no cross-session state).
	if out := dfictl("switches"); !strings.Contains(out, "no switches attached") {
		t.Fatalf("switches output after disconnect: %s", out)
	}
}

func freeAddr(t *testing.T) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close()
	return addr
}

func startProc(t *testing.T, bin string, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", bin, err)
	}
	return cmd
}

func stopProc(cmd *exec.Cmd) {
	if cmd.Process != nil {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
	}
}

func waitListening(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err == nil {
			conn.Close()
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal(fmt.Sprintf("nothing listening on %s", addr))
}
