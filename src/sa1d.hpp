// Umbrella header: the full public API of the sa1d library.
//
// sa1d reproduces "A sparsity-aware distributed-memory algorithm for
// sparse-sparse matrix multiplication" (Hong & Buluç, SC 2024) — the
// sparsity-aware 1D SpGEMM with RDMA block fetching — together with every
// substrate it needs: sparse formats, local kernels, a simulated MPI/RDMA
// runtime with exact communication accounting, 2D/3D baselines, a
// multilevel graph partitioner, and the AMG / betweenness-centrality
// applications the paper evaluates.
#pragma once

#include "util/bitvector.hpp"
#include "util/common.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

#include "sparse/coo.hpp"
#include "sparse/csc.hpp"
#include "sparse/csr.hpp"
#include "sparse/datasets.hpp"
#include "sparse/dcsc.hpp"
#include "sparse/ewise.hpp"
#include "sparse/generators.hpp"
#include "sparse/mmio.hpp"
#include "sparse/ops.hpp"

#include "kernels/semiring.hpp"
#include "kernels/spgemm_local.hpp"
#include "kernels/spmv.hpp"

#include "runtime/cost_model.hpp"
#include "runtime/machine.hpp"
#include "runtime/stats.hpp"

#include "dist/dist_matrix.hpp"
#include "dist/redistribute.hpp"
#include "dist/spgemm3d.hpp"
#include "dist/summa2d.hpp"

#include "core/block_fetch.hpp"
#include "core/outer_product.hpp"
#include "core/spgemm1d.hpp"

#include "dist/dist_spgemm.hpp"

#include "runtime/plan_cache.hpp"

#include "dist/batch_spgemm.hpp"

#include "part/partitioner.hpp"
#include "part/permutation.hpp"

#include "apps/amg.hpp"
#include "apps/bc.hpp"
#include "apps/mcl.hpp"
#include "apps/triangle.hpp"
