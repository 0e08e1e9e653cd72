package main

import (
	"fmt"
	"strconv"

	"lightwave/internal/ctlrpc"
)

// dispatchChaos handles the `chaos` subcommands. Injection only works
// against lwfleetd started with -chaos; any other daemon returns its
// "chaos injection disabled" error verbatim.
func dispatchChaos(c *ctlrpc.Client, args []string) error {
	switch args[0] {
	case "status":
		st, err := c.ChaosStatus()
		if err != nil {
			return err
		}
		printChaosStatus(st)
		return nil

	case "inject":
		if len(args) < 2 {
			return fmt.Errorf("chaos inject needs a fault kind")
		}
		p, err := parseInject(args[1], args[2:])
		if err != nil {
			return err
		}
		res, err := c.ChaosInject(p)
		if err != nil {
			return err
		}
		fmt.Printf("injected: %s\n", res.Applied)
		return nil

	default:
		return fmt.Errorf("unknown chaos subcommand %q", args[0])
	}
}

// parseInject maps the CLI forms onto wire params. Bounded transients
// without an explicit duration default to 60 seconds.
func parseInject(kind string, rest []string) (ctlrpc.ChaosInjectParams, error) {
	p := ctlrpc.ChaosInjectParams{Kind: kind}
	switch kind {
	case "pod-loss", "pod-restore":
		if len(rest) != 1 {
			return p, fmt.Errorf("chaos inject %s needs <pod>", kind)
		}
		p.Pod = rest[0]
		return p, nil

	case "circuit-flap":
		if len(rest) != 3 {
			return p, fmt.Errorf("chaos inject circuit-flap needs <blockA> <blockB> <seconds>")
		}
		a, b, err := twoInts(rest[0], rest[1])
		if err != nil {
			return p, err
		}
		secs, err := strconv.ParseFloat(rest[2], 64)
		if err != nil {
			return p, err
		}
		p.TrunkA, p.TrunkB, p.DurationSeconds = a, b, secs
		return p, nil

	case "ber-degrade":
		if len(rest) != 3 && len(rest) != 4 {
			return p, fmt.Errorf("chaos inject ber-degrade needs <blockA> <blockB> <ber> [seconds]")
		}
		a, b, err := twoInts(rest[0], rest[1])
		if err != nil {
			return p, err
		}
		ber, err := strconv.ParseFloat(rest[2], 64)
		if err != nil {
			return p, err
		}
		p.DurationSeconds = 60
		if len(rest) == 4 {
			if p.DurationSeconds, err = strconv.ParseFloat(rest[3], 64); err != nil {
				return p, err
			}
		}
		p.TrunkA, p.TrunkB, p.BER = a, b, ber
		return p, nil

	case "slow-drain":
		if len(rest) != 3 {
			return p, fmt.Errorf("chaos inject slow-drain needs <pod> <ocs> <seconds>")
		}
		ocs, err := strconv.Atoi(rest[1])
		if err != nil {
			return p, err
		}
		secs, err := strconv.ParseFloat(rest[2], 64)
		if err != nil {
			return p, err
		}
		p.Pod, p.OCS, p.DurationSeconds = rest[0], ocs, secs
		return p, nil

	case "stuck-drain":
		if len(rest) != 2 {
			return p, fmt.Errorf("chaos inject stuck-drain needs <pod> <ocs>")
		}
		ocs, err := strconv.Atoi(rest[1])
		if err != nil {
			return p, err
		}
		p.Pod, p.OCS = rest[0], ocs
		return p, nil

	default:
		return p, fmt.Errorf("unknown fault kind %q", kind)
	}
}

func twoInts(sa, sb string) (int, int, error) {
	a, err := strconv.Atoi(sa)
	if err != nil {
		return 0, 0, err
	}
	b, err := strconv.Atoi(sb)
	if err != nil {
		return 0, 0, err
	}
	return a, b, nil
}

func printChaosStatus(st ctlrpc.ChaosStatusResult) {
	if !st.Enabled {
		fmt.Println("chaos: disabled (start lwfleetd with -chaos)")
		return
	}
	fmt.Printf("chaos:          enabled\n")
	fmt.Printf("injected:       %d faults total\n", st.InjectedTotal)
	fmt.Printf("active:         %d faults, %d trunks admin-down, %d switches down\n",
		st.ActiveFaults, st.TrunksDown, st.DownSwitches)
	if st.LastFault != "" {
		fmt.Printf("last fault:     %s\n", st.LastFault)
	}
}
