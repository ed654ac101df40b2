"""Tour of the tape-based autodiff core.

Builds a few scalar and matrix expressions, runs reverse-mode backward,
and spot-checks one gradient against a central finite difference.
"""

import math

import numpy as np

import crossmim.tensor as T


def main():
    print("== a one-unit GELU feed-forward ==")
    # float64, where the GELU is scipy's erf form, so the two derivatives agree
    x = T.Tensor([[1.5]], requires_grad=True, dtype=np.float64)
    one, zero = T.constant([[1.0]], like=x), T.constant([0.0], like=x)
    with T.fresh_tape():
        # ffn with unit weights and zero biases is gelu(x)
        y = T.ffn(x, one, zero, one, zero) * 2.0 + x * x
        T.backward(y)
    # d/dx [2 gelu(x) + x^2] = 2 (Phi(x) + x phi(x)) + 2x
    cdf = 0.5 * (1.0 + math.erf(1.5 / math.sqrt(2.0)))
    pdf = math.exp(-0.5 * 1.5 * 1.5) / math.sqrt(2.0 * math.pi)
    expect = 2.0 * (cdf + 1.5 * pdf) + 3.0
    print(f"y  = {y.item():.6f}")
    print(f"dy/dx analytic {x.grad.item():.6f}, closed form {expect:.6f}")
    x.grad = None

    print("\n== matrices and broadcasting ==")
    rng = np.random.default_rng(0)
    w = T.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = T.Tensor(np.zeros(4), requires_grad=True)
    data = T.constant(rng.normal(size=(8, 3)))
    with T.fresh_tape():
        pred = T.linear(data, w, b)
        loss = T.reduce_mean(pred * pred)
        T.backward(loss)
    print(f"loss {loss.item():.6f}")
    print(f"w.grad shape {w.grad.shape}, b.grad shape {b.grad.shape}")

    # finite-difference check on one weight entry
    h = 1e-6
    flat = w.data.reshape(-1)
    orig = flat[5]

    def f():
        with T.no_grad():
            p = T.linear(data, w, b)
            return float(T.reduce_mean(p * p).data)

    flat[5] = orig + h
    up = f()
    flat[5] = orig - h
    down = f()
    flat[5] = orig
    fd = (up - down) / (2 * h)
    print(f"w.grad[1,1]   analytic {w.grad.reshape(-1)[5]:.8f}")
    print(f"w.grad[1,1]   finite-difference {fd:.8f}")

    print("\n== gradients accumulate until cleared ==")
    z = T.Tensor(2.0, requires_grad=True)
    for k in range(3):
        with T.fresh_tape():
            T.backward(z * z)
        print(f"after backward #{k + 1}: z.grad = {float(z.grad)}")
    z.grad = None
    print(f"after clearing: z.grad = {z.grad}")


if __name__ == "__main__":
    main()
