package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"ule/internal/serve"
)

// TestMain doubles as the uled executable: TestServeAndDrain re-execs this
// test binary with ULED_MAIN=1 and uled's flags, so the real process —
// listener, signal handling, exit status — is what the test drives.
func TestMain(m *testing.M) {
	if os.Getenv("ULED_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestServeAndDrain boots uled on an ephemeral port, answers one election
// over TCP with the bytes the in-process service computes, and on SIGTERM
// drains and exits 0. Everything else about the service is tested in
// process in internal/serve; this is what only the binary can show.
func TestServeAndDrain(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")
	// The process writes its output to a file of its own, which the test
	// may read at any moment.
	logFile, err := os.Create(filepath.Join(dir, "log"))
	if err != nil {
		t.Fatal(err)
	}
	defer logFile.Close()
	output := func() string {
		data, _ := os.ReadFile(logFile.Name())
		return string(data)
	}
	cmd := exec.Command(exe, "-addr", "127.0.0.1:0", "-addr-file", addrFile)
	cmd.Env = append(os.Environ(), "ULED_MAIN=1")
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	t.Cleanup(func() { cmd.Process.Kill() })

	var addr string
	for deadline := time.Now().Add(10 * time.Second); addr == ""; time.Sleep(10 * time.Millisecond) {
		if data, err := os.ReadFile(addrFile); err == nil {
			addr = string(data)
		} else if time.Now().After(deadline) {
			t.Fatalf("uled did not write its address within 10s:\n%s", output())
		}
	}

	req := serve.ElectionRequest{Graph: "ring:64", Algo: "leastel", Seed: 1}
	body, _ := json.Marshal(req)
	resp, err := http.Post("http://"+addr+"/v1/elections", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	m := serve.NewManager(serve.Config{Slots: 1})
	defer m.Shutdown(context.Background())
	res, err := m.RunElection(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(res)
	if !bytes.Equal(bytes.TrimSpace(got), want) {
		t.Fatalf("served election differs from the in-process one:\n  served %s\n  local  %s", got, want)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("uled exited with %v after SIGTERM:\n%s", err, output())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("uled did not exit within 30s of SIGTERM:\n%s", output())
	}
	if log := output(); !strings.Contains(log, "draining") || !strings.Contains(log, "drained cleanly") {
		t.Errorf("no drain message in uled's output:\n%s", log)
	}
}
