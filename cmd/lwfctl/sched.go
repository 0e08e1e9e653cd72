package main

import (
	"fmt"
	"strconv"
	"strings"

	"lightwave/internal/ctlrpc"
)

// dispatchSched handles the `sched` subcommands. Submission only works
// against a daemon started with -sched; without it the daemon's
// "scheduler disabled" error comes back verbatim.
func dispatchSched(c *ctlrpc.Client, args []string) error {
	switch args[0] {
	case "status":
		st, err := c.SchedStatus()
		if err != nil {
			return err
		}
		printSchedStatus(st)
		return nil

	case "submit":
		if len(args) != 3 {
			return fmt.Errorf("sched submit needs <cubes> <seconds>")
		}
		cubes, err := strconv.Atoi(args[1])
		if err != nil {
			return err
		}
		secs, err := strconv.ParseFloat(args[2], 64)
		if err != nil {
			return err
		}
		res, err := c.SchedSubmit(cubes, secs)
		if err != nil {
			return err
		}
		state := "queued"
		if res.Placed {
			state = "placed"
		}
		fmt.Printf("job %d %s (%d cubes, %.0fs)\n", res.JobID, state, cubes, secs)
		return nil

	default:
		return fmt.Errorf("unknown sched subcommand %q", args[0])
	}
}

func printSchedStatus(st ctlrpc.SchedStatusResult) {
	if !st.Enabled {
		fmt.Println("sched: disabled (start the daemon with -sched)")
		return
	}
	fmt.Printf("sched:          enabled (policy %s, pods %s)\n", st.Policy, strings.Join(st.Pods, ","))
	fmt.Printf("virtual time:   %.0fs\n", st.Now)
	fmt.Printf("jobs:           %d submitted, %d started, %d completed, %d preempted\n",
		st.Submitted, st.Started, st.Completed, st.Preempted)
	fmt.Printf("live:           %d running, %d queued\n", st.RunningJobs, st.QueueDepth)
	fmt.Printf("failures:       %d swaps, %d cubes migrated\n", st.Swaps, st.MigratedCubes)
	fmt.Printf("utilization:    %.4f (mean wait %.1fs)\n", st.Utilization, st.MeanWaitSeconds)
}
