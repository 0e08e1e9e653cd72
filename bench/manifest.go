package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// printManifest writes the run manifest and host fingerprint: everything
// needed to tell whether two outputs are comparable.
func printManifest(e *env, seconds int) {
	fmt.Printf("manifest: commit=%s go=%s nproc=%d gomaxprocs=%d cpu=%q statefs=%s\n",
		gitCommit(), runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), fsType(e.stateRoot))
	fmt.Printf("manifest: seed=%d seconds=%d setup_runs=%d transport=\"loopback TCP, in-process server\" C=%d\n",
		e.seed, seconds, setupRuns, e.conns)
	fmt.Printf("manifest: frozen sizes: pods=%d cubes/pod=%d converge_warmup=%d mutate_warmup=%d read_warmup=%d recover_records=%d sample_every=%d windows=%d\n",
		numPods, cubesPerPod, convergeWarmup, mutateWarmup, readWarmup, recoverRecords, sampleEvery, phaseWindows)
	for _, w := range workloads {
		fmt.Printf("manifest: %-16s %s\n", w.name, w.loop)
	}
}

// gitCommit resolves .git/HEAD by hand; the driver's checkout is not a git
// repository, where it reports "unknown".
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(".git", name))
		if err != nil {
			return "unknown"
		}
		ref = strings.TrimSpace(string(b))
	}
	return ref
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir — it decides what an fsync
// costs, so durable numbers from different filesystems do not compare.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
