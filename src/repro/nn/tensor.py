"""A small reverse-mode autograd tensor built on :mod:`numpy`.

This module is the foundation of the :mod:`repro.nn` deep-learning substrate,
standing in for PyTorch's ``torch.Tensor``.  It implements just enough of the
tensor algebra to express convolutional and transformer classifiers, and a
reverse-mode autodiff engine so that number-format emulation can also be used
during *training* (GoldenEye §V-B: "number format emulation is supported for
training and inference, as backpropagation is supported").

Design notes
------------
* Data is always stored as a ``numpy.ndarray``; float tensors default to
  ``float32`` to mirror the FP32 "compute fabric" of the paper.
* The autodiff graph is built dynamically: each differentiable operation
  records its parents and a closure that accumulates gradients into them.
* Gradient tracking obeys a global switch (see :func:`no_grad`) so inference
  sweeps and error-injection campaigns pay no graph-building cost.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Parameter",
    "no_grad",
    "is_grad_enabled",
    "set_grad_enabled",
    "tensor",
    "zeros",
    "ones",
    "arange",
    "randn",
    "rand",
]


_GRAD_ENABLED = True


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autograd graph."""
    return _GRAD_ENABLED


def set_grad_enabled(mode: bool) -> None:
    """Globally enable or disable autograd graph recording."""
    global _GRAD_ENABLED
    _GRAD_ENABLED = bool(mode)


@contextlib.contextmanager
def no_grad():
    """Context manager that disables autograd recording within its scope."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting.

    When ``a + b`` broadcast ``b`` from ``shape`` up to ``grad.shape``, the
    gradient w.r.t. ``b`` is the sum of ``grad`` over every broadcast axis.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value, dtype=None) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    explicit_ndarray = isinstance(value, (np.ndarray, np.generic))
    arr = np.asarray(value)
    if dtype is not None:
        arr = arr.astype(dtype, copy=False)
    elif arr.dtype == np.float64 and not explicit_ndarray:
        # Python floats / lists default to the FP32 compute fabric; explicit
        # float64 ndarrays are respected (useful for numeric grad checks).
        arr = arr.astype(np.float32)
    return arr


class Tensor:
    """An n-dimensional array with reverse-mode automatic differentiation."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    # Make numpy defer to Tensor for e.g. ``np.float32(2) * tensor``.
    __array_priority__ = 100

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._backward: Callable[[], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared memory, like torch's)."""
        return self.data

    def item(self) -> float:
        return self.data.item()

    def detach(self) -> "Tensor":
        """Return a view of this tensor cut out of the autograd graph."""
        return Tensor(self.data, requires_grad=False)

    def clone(self) -> "Tensor":
        out = self._make(self.data.copy(), (self,))
        if out.requires_grad:

            def _backward():
                self._accumulate(out.grad)

            out._backward = _backward
        return out

    def copy_(self, other: "Tensor | np.ndarray") -> "Tensor":
        """In-place copy of ``other``'s values into this tensor's storage."""
        src = other.data if isinstance(other, Tensor) else np.asarray(other)
        np.copyto(self.data, src.astype(self.data.dtype, copy=False))
        return self

    # ------------------------------------------------------------------
    # autograd machinery
    # ------------------------------------------------------------------
    def _make(self, data: np.ndarray, parents: Iterable["Tensor"]) -> "Tensor":
        out = Tensor(data)
        if not _GRAD_ENABLED:
            return out
        parents = tuple(p for p in parents if isinstance(p, Tensor))
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = grad.astype(self.data.dtype, copy=True)
        else:
            self.grad += grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        ``grad`` defaults to ones (scalar outputs expect no argument, exactly
        like PyTorch).  Gradients accumulate into ``.grad`` on every reachable
        tensor with ``requires_grad``.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"gradient shape {grad.shape} does not match tensor shape {self.data.shape}"
                )

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self.grad = grad.copy() if self.grad is None else self.grad + grad
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward()

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other, self.dtype))
        out = self._make(self.data + other_t.data, (self, other_t))
        if out.requires_grad:

            def _backward():
                self._accumulate(_unbroadcast(out.grad, self.shape))
                other_t._accumulate(_unbroadcast(out.grad, other_t.shape))

            out._backward = _backward
        return out

    __radd__ = __add__

    def __mul__(self, other) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other, self.dtype))
        out = self._make(self.data * other_t.data, (self, other_t))
        if out.requires_grad:

            def _backward():
                self._accumulate(_unbroadcast(out.grad * other_t.data, self.shape))
                other_t._accumulate(_unbroadcast(out.grad * self.data, other_t.shape))

            out._backward = _backward
        return out

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        out = self._make(-self.data, (self,))
        if out.requires_grad:

            def _backward():
                self._accumulate(-out.grad)

            out._backward = _backward
        return out

    def __sub__(self, other) -> "Tensor":
        return self + (-(other if isinstance(other, Tensor) else Tensor(_as_array(other, self.dtype))))

    def __rsub__(self, other) -> "Tensor":
        return Tensor(_as_array(other, self.dtype)) + (-self)

    def __truediv__(self, other) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other, self.dtype))
        return self * other_t ** -1.0

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor(_as_array(other, self.dtype)) * self ** -1.0

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp/log")
        out = self._make(self.data ** exponent, (self,))
        if out.requires_grad:

            def _backward():
                self._accumulate(out.grad * exponent * self.data ** (exponent - 1.0))

            out._backward = _backward
        return out

    def __matmul__(self, other: "Tensor") -> "Tensor":
        from .lanes import lane_matmul

        other_t = other if isinstance(other, Tensor) else Tensor(_as_array(other, self.dtype))
        out = self._make(lane_matmul(self.data, other_t.data), (self, other_t))
        if out.requires_grad:

            def _backward():
                grad = out.grad
                a, b = self.data, other_t.data
                if a.ndim == 1 and b.ndim == 1:
                    self._accumulate(grad * b)
                    other_t._accumulate(grad * a)
                    return
                a2 = a[None, :] if a.ndim == 1 else a
                b2 = b[:, None] if b.ndim == 1 else b
                g2 = grad
                if a.ndim == 1:
                    g2 = np.expand_dims(g2, -2)
                if b.ndim == 1:
                    g2 = np.expand_dims(g2, -1)
                ga = g2 @ np.swapaxes(b2, -1, -2)
                gb = np.swapaxes(a2, -1, -2) @ g2
                if a.ndim == 1:
                    ga = ga.reshape(a.shape) if ga.size == a.size else _unbroadcast(ga, (1,) + a.shape).reshape(a.shape)
                self._accumulate(_unbroadcast(ga.reshape(ga.shape), self.shape) if a.ndim > 1 else ga)
                if b.ndim == 1:
                    gb = gb.reshape(b.shape) if gb.size == b.size else _unbroadcast(gb, b.shape + (1,)).reshape(b.shape)
                    other_t._accumulate(gb)
                else:
                    other_t._accumulate(_unbroadcast(gb, other_t.shape))

            out._backward = _backward
        return out

    # ------------------------------------------------------------------
    # comparisons (non-differentiable, return plain Tensors of bool/float)
    # ------------------------------------------------------------------
    def __gt__(self, other):
        return Tensor(self.data > _as_array(other))

    def __lt__(self, other):
        return Tensor(self.data < _as_array(other))

    def __ge__(self, other):
        return Tensor(self.data >= _as_array(other))

    def __le__(self, other):
        return Tensor(self.data <= _as_array(other))

    def eq(self, other):
        return Tensor(self.data == _as_array(other))

    # ------------------------------------------------------------------
    # unary math
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out = self._make(np.exp(self.data), (self,))
        if out.requires_grad:

            def _backward():
                self._accumulate(out.grad * out.data)

            out._backward = _backward
        return out

    def log(self) -> "Tensor":
        out = self._make(np.log(self.data), (self,))
        if out.requires_grad:

            def _backward():
                self._accumulate(out.grad / self.data)

            out._backward = _backward
        return out

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def tanh(self) -> "Tensor":
        out = self._make(np.tanh(self.data), (self,))
        if out.requires_grad:

            def _backward():
                self._accumulate(out.grad * (1.0 - out.data ** 2))

            out._backward = _backward
        return out

    def abs(self) -> "Tensor":
        out = self._make(np.abs(self.data), (self,))
        if out.requires_grad:

            def _backward():
                self._accumulate(out.grad * np.sign(self.data))

            out._backward = _backward
        return out

    def clamp(self, min_value: float | None = None, max_value: float | None = None) -> "Tensor":
        out = self._make(np.clip(self.data, min_value, max_value), (self,))
        if out.requires_grad:
            mask = np.ones_like(self.data)
            if min_value is not None:
                mask = mask * (self.data >= min_value)
            if max_value is not None:
                mask = mask * (self.data <= max_value)

            def _backward():
                self._accumulate(out.grad * mask)

            out._backward = _backward
        return out

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = self._make(self.data.sum(axis=axis, keepdims=keepdims), (self,))
        if out.requires_grad:

            def _backward():
                grad = out.grad
                if axis is not None and not keepdims:
                    axes = axis if isinstance(axis, tuple) else (axis,)
                    axes = tuple(a % self.ndim for a in axes)
                    shape = [1 if i in axes else n for i, n in enumerate(self.shape)]
                    grad = grad.reshape(shape)
                self._accumulate(np.broadcast_to(grad, self.shape).copy())

            out._backward = _backward
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.size if axis is None else np.prod(
            [self.shape[a % self.ndim] for a in (axis if isinstance(axis, tuple) else (axis,))]
        )
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(count))

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        centered = self - self.mean(axis=axis, keepdims=True)
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = self._make(self.data.max(axis=axis, keepdims=keepdims), (self,))
        if out.requires_grad:

            def _backward():
                grad = out.grad
                maxed = out.data
                if axis is not None and not keepdims:
                    axes = axis if isinstance(axis, tuple) else (axis,)
                    axes = tuple(a % self.ndim for a in axes)
                    shape = [1 if i in axes else n for i, n in enumerate(self.shape)]
                    grad = grad.reshape(shape)
                    maxed = maxed.reshape(shape)
                mask = (self.data == maxed).astype(self.data.dtype)
                mask /= np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)
                self._accumulate(mask * grad)

            out._backward = _backward
        return out

    def argmax(self, axis=None) -> np.ndarray:
        return self.data.argmax(axis=axis)

    # ------------------------------------------------------------------
    # shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = self._make(self.data.reshape(shape), (self,))
        if out.requires_grad:

            def _backward():
                self._accumulate(out.grad.reshape(self.shape))

            out._backward = _backward
        return out

    def flatten(self, start_dim: int = 0) -> "Tensor":
        shape = self.shape[:start_dim] + (-1,)
        return self.reshape(*shape)

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        out = self._make(self.data.transpose(axes), (self,))
        if out.requires_grad:
            inverse = np.argsort(axes)

            def _backward():
                self._accumulate(out.grad.transpose(inverse))

            out._backward = _backward
        return out

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(*axes)

    def __getitem__(self, index) -> "Tensor":
        out = self._make(self.data[index], (self,))
        if out.requires_grad:

            def _backward():
                grad = np.zeros_like(self.data)
                np.add.at(grad, index, out.grad)
                self._accumulate(grad)

            out._backward = _backward
        return out

    def pad(self, pad_width: Sequence[tuple[int, int]]) -> "Tensor":
        pad_width = tuple(tuple(p) for p in pad_width)
        out = self._make(np.pad(self.data, pad_width), (self,))
        if out.requires_grad:
            slices = tuple(
                slice(before, before + n) for (before, _), n in zip(pad_width, self.shape)
            )

            def _backward():
                self._accumulate(out.grad[slices])

            out._backward = _backward
        return out


class Parameter(Tensor):
    """A :class:`Tensor` that is registered as trainable module state."""

    __slots__ = ()

    def __init__(self, data, requires_grad: bool = True, name: str | None = None):
        super().__init__(data, requires_grad=False, name=name)
        # Parameters require grad regardless of the global switch at creation.
        self.requires_grad = bool(requires_grad)


# ----------------------------------------------------------------------
# factory helpers
# ----------------------------------------------------------------------
def tensor(data, requires_grad: bool = False) -> Tensor:
    """Create a tensor (float64 inputs are downcast to float32)."""
    return Tensor(data, requires_grad=requires_grad)


def zeros(*shape, requires_grad: bool = False) -> Tensor:
    """All-zeros float32 tensor of the given shape."""
    return Tensor(np.zeros(shape, dtype=np.float32), requires_grad=requires_grad)


def ones(*shape, requires_grad: bool = False) -> Tensor:
    """All-ones float32 tensor of the given shape."""
    return Tensor(np.ones(shape, dtype=np.float32), requires_grad=requires_grad)


def arange(*args, requires_grad: bool = False) -> Tensor:
    """Float32 tensor of evenly spaced values (numpy arange semantics)."""
    return Tensor(np.arange(*args, dtype=np.float32), requires_grad=requires_grad)


def randn(*shape, rng: np.random.Generator | None = None, requires_grad: bool = False) -> Tensor:
    """Standard-normal float32 tensor (pass ``rng`` for determinism)."""
    rng = rng or np.random.default_rng()
    return Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=requires_grad)


def rand(*shape, rng: np.random.Generator | None = None, requires_grad: bool = False) -> Tensor:
    """Uniform-[0,1) float32 tensor (pass ``rng`` for determinism)."""
    rng = rng or np.random.default_rng()
    return Tensor(rng.random(shape).astype(np.float32), requires_grad=requires_grad)


def cat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` (differentiable)."""
    tensors = list(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    out = tensors[0]._make(data, tensors)
    if out.requires_grad:
        sizes = [t.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def _backward():
            for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                index = [slice(None)] * data.ndim
                index[axis] = slice(start, stop)
                t._accumulate(out.grad[tuple(index)])

        out._backward = _backward
    return out


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` (differentiable)."""
    tensors = list(tensors)
    data = np.stack([t.data for t in tensors], axis=axis)
    out = tensors[0]._make(data, tensors)
    if out.requires_grad:

        def _backward():
            grads = np.split(out.grad, len(tensors), axis=axis)
            for t, g in zip(tensors, grads):
                t._accumulate(np.squeeze(g, axis=axis))

        out._backward = _backward
    return out
