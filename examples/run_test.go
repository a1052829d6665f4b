// Package examples has no code of its own: its test builds every example
// program below it and runs each to completion, so an example that hangs
// (a guard left held, a self-deadlock) or exits non-zero fails go test.
package examples

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// exampleBound is how long one example may run before the test calls it
// hung; each finishes in under a second.
const exampleBound = 30 * time.Second

func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs every example")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./...")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	dirs, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		name := d.Name()
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), exampleBound)
			defer cancel()
			cmd := exec.CommandContext(ctx, filepath.Join(bin, name))
			// On the deadline, SIGQUIT makes the example print every
			// goroutine's stack; ten seconds later it is killed outright.
			cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGQUIT) }
			cmd.WaitDelay = 10 * time.Second
			cmd.Env = append(os.Environ(), "GOTRACEBACK=all")
			var out bytes.Buffer
			cmd.Stdout, cmd.Stderr = &out, &out
			start := time.Now()
			err := cmd.Run()
			switch {
			case ctx.Err() != nil:
				t.Fatalf("%s still running after %v; output and goroutine dump:\n%s", name, exampleBound, out.Bytes())
			case err != nil:
				t.Fatalf("%s failed after %v: %v\n%s", name, time.Since(start).Round(time.Millisecond), err, out.Bytes())
			}
		})
	}
}
