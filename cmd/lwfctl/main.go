// Command lwfctl is the operator CLI for a lightwave fabric daemon (lwfd)
// and, via the fleet subcommands, for the fleet daemon (lwfleetd).
//
// Usage:
//
//	lwfctl [-addr host:port] status
//	lwfctl compose <name> <XxYxZ> <cube,cube,...>
//	lwfctl destroy <name>
//	lwfctl slice <name>
//	lwfctl fail-cube <cube>
//	lwfctl repair-cube <cube>
//	lwfctl install-cube <cube>
//	lwfctl observe-ber <ocs> <port> <ber>
//	lwfctl te status
//	lwfctl fleet status
//	lwfctl fleet apply <pod> <name> <XxYxZ> [cube,cube,...]
//	lwfctl fleet remove <pod> <name>
//	lwfctl fleet drain <pod> [ocs]
//	lwfctl fleet undrain <pod> [ocs]
//	lwfctl fleet watch [count]
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"lightwave/internal/ctlrpc"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7600", "fabric daemon address")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	client, err := ctlrpc.Dial(*addr, 3*time.Second)
	if err != nil {
		fatal(err)
	}
	defer client.Close()
	if err := dispatch(client, args); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lwfctl:", err)
	os.Exit(1)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: lwfctl [-addr host:port] <command> [args]
commands:
  status
  compose <name> <XxYxZ> <cube,cube,...>
  reshape <name> <XxYxZ> [cube,cube,...]
  destroy <name>
  slice <name>
  fail-cube <cube>
  repair-cube <cube>
  install-cube <cube>
  observe-ber <ocs> <port> <ber>
  repair-link <ocs> <cube>
  metrics
  te status
fleet commands (against lwfleetd):
  fleet status
  fleet apply <pod> <name> <XxYxZ> [cube,cube,...]
  fleet remove <pod> <name>
  fleet drain <pod> [ocs]
  fleet undrain <pod> [ocs]
  fleet watch [count]
chaos commands (lwfleetd must run with -chaos):
  chaos status
  chaos inject pod-loss <pod>
  chaos inject pod-restore <pod>
  chaos inject circuit-flap <blockA> <blockB> <seconds>
  chaos inject ber-degrade <blockA> <blockB> <ber> [seconds]
  chaos inject slow-drain <pod> <ocs> <seconds>
  chaos inject stuck-drain <pod> <ocs>
sched commands (lwfleetd must run with -sched):
  sched status
  sched submit <cubes> <seconds>
wal commands (daemon must run with -state-dir):
  wal status`)
}

func dispatch(c *ctlrpc.Client, args []string) error {
	switch args[0] {
	case "status":
		st, err := c.Status()
		if err != nil {
			return err
		}
		fmt.Printf("installed cubes: %d\n", st.InstalledCubes)
		fmt.Printf("free cubes:      %v\n", st.FreeCubes)
		fmt.Printf("slices:          %v\n", st.Slices)
		fmt.Printf("live circuits:   %d\n", st.TotalCircuits)
		return nil

	case "compose":
		if len(args) != 4 {
			return fmt.Errorf("compose needs <name> <XxYxZ> <cubes>")
		}
		shape, err := parseShape(args[2])
		if err != nil {
			return err
		}
		cubes, err := parseInts(args[3])
		if err != nil {
			return err
		}
		sl, err := c.Compose(args[1], shape, cubes)
		if err != nil {
			return err
		}
		printSlice(sl)
		return nil

	case "reshape":
		if len(args) != 3 && len(args) != 4 {
			return fmt.Errorf("reshape needs <name> <XxYxZ> [cubes]")
		}
		shape, err := parseShape(args[2])
		if err != nil {
			return err
		}
		var cubes []int
		if len(args) == 4 {
			cubes, err = parseInts(args[3])
			if err != nil {
				return err
			}
		}
		sl, err := c.Reshape(args[1], shape, cubes)
		if err != nil {
			return err
		}
		printSlice(sl)
		return nil

	case "destroy":
		if len(args) != 2 {
			return fmt.Errorf("destroy needs <name>")
		}
		return c.Destroy(args[1])

	case "slice":
		if len(args) != 2 {
			return fmt.Errorf("slice needs <name>")
		}
		sl, err := c.Slice(args[1])
		if err != nil {
			return err
		}
		printSlice(sl)
		return nil

	case "fail-cube":
		cube, err := oneInt(args, "fail-cube")
		if err != nil {
			return err
		}
		rc, err := c.FailCube(cube)
		if err != nil {
			return err
		}
		if rc >= 0 {
			fmt.Printf("cube %d failed; slice repaired with replacement cube %d\n", cube, rc)
		} else {
			fmt.Printf("cube %d failed; no slice affected\n", cube)
		}
		return nil

	case "repair-cube":
		cube, err := oneInt(args, "repair-cube")
		if err != nil {
			return err
		}
		return c.RepairCube(cube)

	case "install-cube":
		cube, err := oneInt(args, "install-cube")
		if err != nil {
			return err
		}
		return c.InstallCube(cube)

	case "repair-link":
		if len(args) != 3 {
			return fmt.Errorf("repair-link needs <ocs> <cube>")
		}
		ocsID, err := strconv.Atoi(args[1])
		if err != nil {
			return err
		}
		cube, err := strconv.Atoi(args[2])
		if err != nil {
			return err
		}
		spare, err := c.RepairLink(ocsID, cube)
		if err != nil {
			return err
		}
		fmt.Printf("cube %d repatched to spare port %d on ocs %d\n", cube, spare, ocsID)
		return nil

	case "metrics":
		text, err := c.Metrics()
		if err != nil {
			return err
		}
		fmt.Print(text)
		return nil

	case "te":
		if len(args) != 2 || args[1] != "status" {
			return fmt.Errorf("te needs the status subcommand")
		}
		st, err := c.TEStatus()
		if err != nil {
			return err
		}
		printTEStatus(st)
		return nil

	case "fleet":
		if len(args) < 2 {
			return fmt.Errorf("fleet needs a subcommand")
		}
		return dispatchFleet(c, args[1:])

	case "chaos":
		if len(args) < 2 {
			return fmt.Errorf("chaos needs a subcommand (status, inject)")
		}
		return dispatchChaos(c, args[1:])

	case "sched":
		if len(args) < 2 {
			return fmt.Errorf("sched needs a subcommand (status, submit)")
		}
		return dispatchSched(c, args[1:])

	case "wal":
		if len(args) < 2 {
			return fmt.Errorf("wal needs a subcommand (status)")
		}
		return dispatchWal(c, args[1:])

	case "observe-ber":
		if len(args) != 4 {
			return fmt.Errorf("observe-ber needs <ocs> <port> <ber>")
		}
		ocsID, err := strconv.Atoi(args[1])
		if err != nil {
			return err
		}
		port, err := strconv.Atoi(args[2])
		if err != nil {
			return err
		}
		ber, err := strconv.ParseFloat(args[3], 64)
		if err != nil {
			return err
		}
		anom, err := c.ObserveBER(ocsID, port, ber)
		if err != nil {
			return err
		}
		fmt.Printf("anomalous: %v\n", anom)
		return nil

	default:
		usage()
		return fmt.Errorf("unknown command %q", args[0])
	}
}

func oneInt(args []string, cmd string) (int, error) {
	if len(args) != 2 {
		return 0, fmt.Errorf("%s needs <cube>", cmd)
	}
	return strconv.Atoi(args[1])
}

func parseShape(s string) ([3]int, error) {
	parts := strings.Split(strings.ToLower(s), "x")
	if len(parts) != 3 {
		return [3]int{}, fmt.Errorf("shape %q: want XxYxZ", s)
	}
	var out [3]int
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return out, fmt.Errorf("shape %q: %w", s, err)
		}
		out[i] = v
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, p := range strings.Split(s, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func printTEStatus(st ctlrpc.TEStatusResult) {
	if !st.Enabled {
		fmt.Println("te loop: disabled (start lwfleetd with -te-epoch)")
		return
	}
	fmt.Printf("te loop:        %d blocks x %d uplinks, %d trunks live\n",
		st.Blocks, st.Uplinks, st.CurrentTrunks)
	fmt.Printf("epochs:         %d (last reconfig at epoch %d)\n", st.Epoch, st.LastReconfigEpoch)
	fmt.Printf("reconfigs:      %d applied (%d stages, %d trunks moved), %d held\n",
		st.Reconfigs, st.Stages, st.TrunksMoved, st.SkippedReconfigs)
	fmt.Printf("last decision:  %s\n", st.LastReason)
	fmt.Printf("last gain:      %.3f\n", st.LastGain)
	if st.LastPredictionError >= 0 {
		fmt.Printf("pred error:     %.3f\n", st.LastPredictionError)
	}
	fmt.Printf("min residual:   %.3f of capacity\n", st.MinResidualFraction)
	fmt.Printf("drained:        %.3g bps-seconds\n", st.DrainedCapacityBpsSeconds)
}

func printSlice(sl ctlrpc.SliceResult) {
	fmt.Printf("slice %s: shape %dx%dx%d, cubes %v, %d circuits, worst margin %.2f dB\n",
		sl.Name, sl.Shape[0], sl.Shape[1], sl.Shape[2], sl.Cubes, sl.Circuits, sl.WorstMarginDB)
}
