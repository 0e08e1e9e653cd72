package main

import (
	"fmt"

	"lightwave/internal/ctlrpc"
)

// dispatchWal handles the wal subcommands against either daemon.
func dispatchWal(c *ctlrpc.Client, args []string) error {
	if len(args) != 1 || args[0] != "status" {
		return fmt.Errorf("wal needs the status subcommand")
	}
	st, err := c.WALStatus()
	if err != nil {
		return err
	}
	printWALStatus(st)
	return nil
}

func printWALStatus(st ctlrpc.WALStatusResult) {
	if !st.Enabled {
		fmt.Println("wal: disabled (start the daemon with -state-dir)")
		return
	}
	fmt.Printf("state dir:      %s\n", st.Dir)
	fmt.Printf("log:            lsn %d, %d segments, %d bytes (snapshot covers lsn %d)\n",
		st.LastLSN, st.Segments, st.TotalBytes, st.SnapshotLSN)
	fmt.Printf("appends:        %d (%d bytes, %d fsyncs", st.Appends, st.AppendBytes, st.Fsyncs)
	if st.Fsyncs > 0 {
		fmt.Printf(", %.2f records per fsync", float64(st.Appends)/float64(st.Fsyncs))
	}
	fmt.Println(")")
	if st.Broken != "" {
		fmt.Printf("BROKEN:         %s (appends and checkpoints refused; restart the daemon)\n", st.Broken)
	}
	fmt.Printf("snapshots:      %d taken, %d segments compacted\n", st.Snapshots, st.Compactions)
	fmt.Printf("last recovery:  %d records replayed, %d errors, %d bytes truncated, %d segments dropped\n",
		st.ReplayRecords, st.ReplayErrors, st.TruncatedBytes, st.DroppedSegments)
	if st.FleetDigest != "" {
		fmt.Printf("fleet state:    %d pods, %d slices, digest %.16s…\n",
			st.FleetPods, st.FleetSlices, st.FleetDigest)
	}
}
