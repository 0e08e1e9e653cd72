package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"lightwave/internal/ctlrpc"
	"lightwave/internal/fleet"
)

// dispatchFleet handles the fleet subcommand family against lwfleetd.
func dispatchFleet(c *ctlrpc.Client, args []string) error {
	switch args[0] {
	case "status":
		st, err := c.FleetStatus()
		if err != nil {
			return err
		}
		printFleetStatus(st)
		return nil

	case "apply":
		if len(args) != 4 && len(args) != 5 {
			return fmt.Errorf("fleet apply needs <pod> <name> <XxYxZ> [cubes]")
		}
		shape, err := parseShape(args[3])
		if err != nil {
			return err
		}
		var cubes []int
		if len(args) == 5 {
			cubes, err = parseInts(args[4])
			if err != nil {
				return err
			}
		}
		res, err := c.ApplyIntent(ctlrpc.ApplyIntentParams{Pod: args[1], Slices: []ctlrpc.SliceIntentSpec{
			{Name: args[2], Shape: shape, Cubes: cubes},
		}})
		if err != nil {
			return err
		}
		fmt.Printf("accepted %d intent(s) for %s\n", res.Accepted, args[1])
		return nil

	case "remove":
		if len(args) != 3 {
			return fmt.Errorf("fleet remove needs <pod> <name>")
		}
		_, err := c.ApplyIntent(ctlrpc.ApplyIntentParams{Pod: args[1], Slices: []ctlrpc.SliceIntentSpec{
			{Name: args[2], Remove: true},
		}})
		return err

	case "drain", "undrain":
		if len(args) != 2 && len(args) != 3 {
			return fmt.Errorf("fleet %s needs <pod> [ocs]", args[0])
		}
		var ocs *int
		if len(args) == 3 {
			v, err := strconv.Atoi(args[2])
			if err != nil {
				return err
			}
			ocs = &v
		}
		if args[0] == "drain" {
			return c.Drain(args[1], ocs)
		}
		return c.Undrain(args[1], ocs)

	case "watch":
		count := 0 // 0 = forever
		if len(args) == 2 {
			v, err := strconv.Atoi(args[1])
			if err != nil {
				return err
			}
			count = v
		} else if len(args) > 2 {
			return fmt.Errorf("fleet watch takes at most [count]")
		}
		stream, err := c.Watch()
		if err != nil {
			return err
		}
		defer stream.Close()
		for i := 0; count == 0 || i < count; i++ {
			ev, err := stream.Next()
			if err != nil {
				return err
			}
			ts := time.UnixMilli(ev.UnixMillis).Format("15:04:05.000")
			line := fmt.Sprintf("%s  %-16s %s", ts, ev.Type, ev.Pod)
			if ev.Slice != "" {
				line += "/" + ev.Slice
			}
			if ev.Detail != "" {
				line += "  " + ev.Detail
			}
			fmt.Println(line)
		}
		return nil

	default:
		usage()
		return fmt.Errorf("unknown fleet command %q", args[0])
	}
}

func printFleetStatus(st fleet.Status) {
	fmt.Printf("pods: %d  queue depth: %d  quarantined: %d\n",
		len(st.Pods), st.QueueDepth, st.QuarantinedPods)
	for _, p := range st.Pods {
		var flags []string
		if p.Converged {
			flags = append(flags, "converged")
		} else {
			flags = append(flags, "reconciling")
		}
		if p.Drained {
			flags = append(flags, "drained")
		}
		if p.Quarantined {
			flags = append(flags, "QUARANTINED")
		}
		if len(p.DrainedOCS) > 0 {
			flags = append(flags, fmt.Sprintf("ocs-drained %v", p.DrainedOCS))
		}
		fmt.Printf("  %-12s %s\n", p.Name, strings.Join(flags, ", "))
		fmt.Printf("    cubes %d installed / %d free, %d circuits\n",
			p.InstalledCubes, p.FreeCubes, p.Circuits)
		fmt.Printf("    intent %v actual %v\n", p.DesiredSlices, p.ActualSlices)
		if p.LastError != "" {
			fmt.Printf("    last error: %s\n", p.LastError)
		}
	}
}
