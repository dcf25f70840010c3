// AVX2 lockstep plant kernel: the eight lanes as two interleaved 4-wide
// vectors.  Two ymm chains beat one 8-wide AVX-512 vector here: each
// step is two divides deep on a serial chain, and a ymm divide has about
// two thirds of a zmm divide's latency (measured on a Xeon with AVX-512:
// 5.1x scalar for 2x4 lanes, 4.2x for 1x8).  Only built when the
// toolchain takes -mavx2; only run when cpuid reports it.
#define DDL_PLANT_KERNEL_NS plant_kernel_avx2
#define DDL_PLANT_KERNEL_WIDTH 4
#include "plant_lanes_kernel_body.inc"
