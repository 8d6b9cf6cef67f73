// Differentiable operations over `Tensor`.
//
// Every function computes its result eagerly and, when gradient recording is
// active (see NoGradGuard) and at least one input participates in autograd,
// attaches a backward closure to the result. Shapes are validated up front;
// all errors are `ShapeError`.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace cppflare::tensor {

// ---- elementwise binary (equal shapes) -----------------------------------
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);

// ---- scalar ----------------------------------------------------------------
Tensor add_scalar(const Tensor& a, float s);
Tensor mul_scalar(const Tensor& a, float s);
Tensor neg(const Tensor& a);

/// x[..., N] + bias[N] broadcast over all leading dims.
Tensor add_bias(const Tensor& x, const Tensor& bias);

// ---- activations ------------------------------------------------------------
Tensor relu(const Tensor& a);
Tensor tanh_op(const Tensor& a);
Tensor sigmoid(const Tensor& a);
/// GELU, tanh approximation (as used by BERT).
Tensor gelu(const Tensor& a);

/// Inverted dropout: keeps values with probability 1 - t/2^32, where
/// t = round(p * 2^32), and rescales them by 1/(1-p). Identity when p == 0.
/// Callers pass p = 0 in evaluation mode. Takes one word from `rng` per
/// call; the mask is a keyed stream derived from it (DESIGN.md §8).
Tensor dropout(const Tensor& a, float p, core::Rng& rng);

// ---- matrix products ---------------------------------------------------------
/// [M,K] x [K,N] -> [M,N]
Tensor matmul(const Tensor& a, const Tensor& b);
/// Affine map with PyTorch weight layout: x[M,K], w[N,K], optional b[N].
/// Returns x * w^T + b, shape [M,N]. Pass an undefined Tensor for no bias.
Tensor linear(const Tensor& x, const Tensor& w, const Tensor& b);
/// Batched [B,M,K] x [B,K,N] -> [B,M,N]
Tensor bmm(const Tensor& a, const Tensor& b);
/// Batched with transposed RHS: [B,M,K] x [B,N,K] -> [B,M,N]
/// (attention scores: Q x K^T without materializing the transpose).
Tensor bmm_nt(const Tensor& a, const Tensor& b);

// ---- shape ---------------------------------------------------------------
/// Copies into a new contiguous tensor of `shape` (same numel).
Tensor reshape(const Tensor& a, Shape shape);
/// General axis permutation, e.g. {0,2,1,3} to split attention heads.
Tensor permute(const Tensor& a, const std::vector<std::int64_t>& perm);
/// x[B,T,H] -> x[:, index, :] of shape [B,H].
Tensor select_dim1(const Tensor& x, std::int64_t index);
/// x[M,N] -> x[:, start:start+len] of shape [M,len].
Tensor slice_cols(const Tensor& x, std::int64_t start, std::int64_t len);
/// Concatenates 2D tensors [M,Ni] along columns.
Tensor concat_cols(const std::vector<Tensor>& parts);
/// Stacks T tensors of shape [B,H] into [B,T,H] (time-major assembly of
/// recurrent outputs).
Tensor stack_dim1(const std::vector<Tensor>& steps);
/// Per-row time gather: x[B,T,H], idx (length B, values in [0,T)) ->
/// out[b,:] = x[b, idx[b], :]. Used to read each sequence's last valid
/// hidden state under padding.
Tensor gather_dim1(const Tensor& x, const std::vector<std::int64_t>& idx);

// ---- reductions ------------------------------------------------------------
Tensor sum_all(const Tensor& a);
Tensor mean_all(const Tensor& a);

// ---- fused NN ops -----------------------------------------------------------
/// Softmax over the last axis.
Tensor softmax_lastdim(const Tensor& a);

/// Layer normalization over the last axis with affine parameters.
/// gamma/beta have shape [H] where H is the last dim of x.
Tensor layer_norm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                  float eps = 1e-5f);

/// Token embedding lookup: weight[V,H], ids (len N, values in [0,V)) ->
/// [N,H]. Gradient scatters rows back into the weight matrix.
Tensor embedding(const Tensor& weight, const std::vector<std::int64_t>& ids);

/// Mean cross-entropy over rows of logits[N,C] against integer targets
/// (length N). Rows whose target equals `ignore_index` contribute neither
/// to the loss nor to the gradient. Returns a scalar; throws if every
/// target is ignored.
Tensor cross_entropy(const Tensor& logits, const std::vector<std::int64_t>& targets,
                     std::int64_t ignore_index = -100);

}  // namespace cppflare::tensor
