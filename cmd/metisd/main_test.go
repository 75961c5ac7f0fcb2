package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestRunRefusesBadArgs checks that run rejects each inconsistent or
// unknown argument set with an error, before it opens a log or starts
// listening: a run that got past its checks would serve until signalled.
func TestRunRefusesBadArgs(t *testing.T) {
	dir := t.TempDir()
	wal := filepath.Join(dir, "wal")
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"snapshot with wal", []string{"-snapshot", filepath.Join(dir, "s.json"), "-wal-dir", wal}, "flag provided but not defined: -snapshot"},
		{"deleted snapshot-every flag", []string{"-snapshot-every", "8"}, "flag provided but not defined: -snapshot-every"},
		{"standby without primary", []string{"-standby", "-wal-dir", wal}, "-primary-url"},
		{"unknown policy", []string{"-policy", "bogus"}, `unknown policy "bogus"`},
		{"deleted flag", []string{"-flight-dir", dir}, "flag provided but not defined: -flight-dir"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"-addr", "127.0.0.1:0"}, tc.args...)
			done := make(chan error, 1)
			go func() { done <- run(args) }()
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("run(%q) = %v, want an error containing %q", tc.args, err, tc.want)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("run(%q) did not refuse its arguments", tc.args)
			}
		})
	}
	if _, err := os.Stat(wal); !os.IsNotExist(err) {
		t.Fatalf("a refused run created the log directory (stat: %v)", err)
	}
}
