// Package o2k reproduces "A Comparison of Three Programming Models for
// Adaptive Applications on the Origin2000" (Shan, Singh, Oliker, Biswas;
// SC 2000) as a self-contained Go system: a deterministic virtual-time
// simulator of an Origin2000-class ccNUMA machine, three programming-model
// runtimes (MPI-style message passing, SGI/Cray SHMEM-style one-sided
// communication, and the hardware cache-coherent shared address space), two
// adaptive applications implemented once per model (dynamic unstructured
// mesh adaptation with a PLUM-style load balancer, and Barnes-Hut N-body),
// and a harness that regenerates the study's tables and figures.
//
// Start with README.md and DESIGN.md (system inventory and experiment
// index). cmd/o2kbench regenerates every table and figure;
// internal/experiments/testdata/digests.txt pins their bytes (TestDigests).
package o2k
