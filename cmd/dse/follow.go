package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"graphdse/internal/artifact"
	"graphdse/internal/dsedclient"
	"graphdse/internal/guard"
)

// renderEvent prints one stream event as a human-readable line.
func renderEvent(ev dsedclient.Event) {
	switch ev.Type {
	case "state":
		line := fmt.Sprintf("job %s -> %s", ev.Job, ev.State)
		if ev.Attempt > 0 {
			line += fmt.Sprintf(" (attempt %d)", ev.Attempt)
		}
		if ev.State == "done" {
			line += fmt.Sprintf(": %d survivors, %d quarantined", ev.Survivors, ev.Quarantined)
		}
		if ev.Error != "" {
			line += ": " + ev.Error
		}
		fmt.Println(line)
	case "progress":
		fmt.Printf("job %s progress %d/%d\n", ev.Job, ev.Done, ev.Total)
	case "failure":
		line := fmt.Sprintf("job %s point %s failed [%s, %d attempts]", ev.Job, ev.Point, ev.Class, ev.Attempts)
		if ev.Error != "" {
			line += ": " + ev.Error
		}
		fmt.Println(line)
	case "lag":
		fmt.Fprintf(os.Stderr, "dse: follow: %s\n", ev.Error)
	default:
		fmt.Printf("job %s event %s (seq %d)\n", ev.Job, ev.Type, ev.Seq)
	}
}

// runFollow attaches to a daemon job's event stream and rides it to the
// job's terminal state, resuming across disconnects and daemon restarts.
// The exit code reflects the terminal state: done exits 0, quarantined
// exits artifact.ExitCorrupt, failed and cancelled exit artifact.ExitError.
func runFollow(daemonURL, jobID string, after uint64) {
	ctx, stop := guard.SignalContext(context.Background(), func(sig os.Signal) {
		fmt.Fprintf(os.Stderr, "dse: second signal (%v): forcing exit\n", sig)
		os.Exit(artifact.ExitForced)
	})
	defer stop()

	client := dsedclient.New(daemonURL, dsedclient.Options{})
	term, err := client.Follow(ctx, jobID, dsedclient.FollowOptions{
		After:   after,
		OnEvent: renderEvent,
		OnRetry: func(failures int, rerr error, delay time.Duration) {
			fmt.Fprintf(os.Stderr, "dse: follow: stream lost (%v); reconnect %d in %v\n", rerr, failures, delay)
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dse: follow:", err)
		switch {
		case errors.Is(err, context.Canceled):
			os.Exit(artifact.ExitError)
		case errors.Is(err, dsedclient.ErrNotFound):
			os.Exit(artifact.ExitUsage)
		default:
			os.Exit(artifact.ExitError)
		}
	}
	switch term.State {
	case "done":
		os.Exit(artifact.ExitOK)
	case "quarantined":
		os.Exit(artifact.ExitCorrupt)
	default: // failed, cancelled
		os.Exit(artifact.ExitError)
	}
}
