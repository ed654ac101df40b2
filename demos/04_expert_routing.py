"""Sparse top-1 expert routing: capacity, drops, and the balance loss.

Routes a toy token batch through a small expert bank and prints the
dispatch report, then shows how the balance loss reacts when the gate
collapses onto one expert.
"""

import numpy as np

import crossmim.tensor as T
from crossmim.encoder import expert_capacity, moe_forward


def expert(rng, width, hidden):
    return {
        "w1": T.constant(rng.standard_normal((width, hidden)) * 0.3),
        "b1": T.constant(np.zeros(hidden)),
        "w2": T.constant(rng.standard_normal((hidden, width)) * 0.3),
        "b2": T.constant(np.zeros(width)),
    }


def main():
    rng = np.random.default_rng(3)
    width, n_experts, n_tokens = 16, 4, 24
    bank = [expert(rng, width, 32) for _ in range(n_experts)]
    x = T.constant(rng.standard_normal((n_tokens, width)))
    gate = T.constant(rng.standard_normal((width, n_experts)))

    cap = expert_capacity(n_tokens, n_experts, 1.25)
    print(f"{n_tokens} tokens, {n_experts} experts, capacity factor 1.25 "
          f"-> at most {cap} tokens per expert")

    with T.no_grad():
        combined, aux, report = moe_forward(x, gate, bank, capacity_factor=1.25)
    print(f"kept per expert: {report.expert_counts}, dropped: {report.dropped}")
    print(f"mean gate prob:  {[round(p, 3) for p in report.mean_gate_prob]}")
    print(f"balance loss:    {float(aux.data):.6f}")
    zeroed = int((np.abs(combined.data).sum(axis=1) == 0).sum())
    print(f"tokens riding the residual untouched: {zeroed}")

    print("\nuniform gate (all-zero weights): every token ties to expert 0,")
    with T.no_grad():
        _, aux_u, rep_u = moe_forward(x, T.constant(np.zeros((width, n_experts))), bank, 1.25)
    print(f"counts {rep_u.expert_counts}, balance loss exactly {float(aux_u.data)}")

    print("\na gate that overweights one shared feature collapses routing,")
    print("and the balance loss climbs toward the expert count:")
    shared = x.data.copy()
    shared[:, 0] = np.abs(shared[:, 0]) + 1.0  # a feature every token carries
    for strength in (0.0, 1.0, 4.0):
        skew = gate.data.copy()
        skew[0, 0] += strength  # expert 0 listens to the shared feature
        with T.no_grad():
            _, aux_s, rep_s = moe_forward(T.constant(shared), T.constant(skew), bank, 1.25)
        print(f"  gate skew {strength:4.1f}: counts {rep_s.expert_counts}, "
              f"aux {float(aux_s.data):.4f}")


if __name__ == "__main__":
    main()
