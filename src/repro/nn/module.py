"""Module base class with the forward-hook machinery GoldenEye relies on.

GoldenEye (§III-A) "leverages PyTorch's hook functionality to perform number
format emulation at the layer granularity".  This module reproduces that hook
surface on the numpy substrate:

* ``register_forward_pre_hook(fn)`` — ``fn(module, inputs)`` may return
  replacement inputs (used to quantize a layer's *incoming* activations);
* ``register_forward_hook(fn)`` — ``fn(module, inputs, output)`` may return a
  replacement output (used to quantize a layer's *outgoing* neurons and to
  inject faults into them).

Both return a :class:`HookHandle` whose ``remove()`` detaches the hook, so a
GoldenEye instance can cleanly instrument and de-instrument any model.

Partial (checkpoint-and-resume) execution
-----------------------------------------
:meth:`Module.forward_from` runs a forward pass under a *replay controller* —
an object with ``intercept(module, inputs)`` and ``record(module, inputs,
output)`` methods (see :class:`repro.core.resume.ResumeSession`).  Before a
module computes, the controller's ``intercept`` may return a previously
cached output (skipping pre-hooks, ``forward`` *and* post-hooks for that
call); returning the :data:`COMPUTE` sentinel means "execute normally".
After a normal execution, ``record`` observes the output.  This is the
mechanism that lets an injection campaign restart inference *from* a victim
layer, replaying cached golden activations for everything upstream.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from typing import Callable, Iterator

import numpy as np

from .tensor import Parameter, Tensor

__all__ = ["Module", "HookHandle", "Sequential", "ModuleList", "COMPUTE"]

#: sentinel returned by a replay controller's ``intercept`` to mean
#: "no cached output — run this module's forward normally"
COMPUTE = object()


class HookHandle:
    """Removable registration of a hook, mirroring torch's ``RemovableHandle``."""

    _ids = itertools.count()

    def __init__(self, registry: "OrderedDict[int, Callable]"):
        self._registry = registry
        self.id = next(HookHandle._ids)

    def remove(self) -> None:
        self._registry.pop(self.id, None)


class Module:
    """Base class for all neural-network layers and models."""

    #: active replay controller, installed process-wide by :meth:`forward_from`
    #: (one forward pass at a time — the numpy substrate is single-threaded)
    _replay_controller = None

    def __init__(self):
        self._parameters: OrderedDict[str, Parameter] = OrderedDict()
        self._buffers: OrderedDict[str, np.ndarray] = OrderedDict()
        self._modules: OrderedDict[str, Module] = OrderedDict()
        self._forward_hooks: OrderedDict[int, Callable] = OrderedDict()
        self._forward_pre_hooks: OrderedDict[int, Callable] = OrderedDict()
        self.training = True

    # ------------------------------------------------------------------
    # attribute plumbing
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
            self.__dict__.pop(name, None)
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
            self.__dict__.pop(name, None)
        else:
            if name in getattr(self, "_parameters", {}):
                del self._parameters[name]
            if name in getattr(self, "_modules", {}):
                del self._modules[name]
            object.__setattr__(self, name, value)

    def __getattr__(self, name: str):
        for registry in ("_parameters", "_buffers", "_modules"):
            table = self.__dict__.get(registry)
            if table is not None and name in table:
                return table[name]
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register non-trainable state (e.g. BatchNorm running statistics)."""
        self._buffers[name] = np.asarray(value)

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def parameters(self) -> Iterator[Parameter]:
        for _, p in self.named_parameters():
            yield p

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, p in self._parameters.items():
            yield (f"{prefix}{name}", p)
        for child_name, child in self._modules.items():
            yield from child.named_parameters(prefix=f"{prefix}{child_name}.")

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        for name, b in self._buffers.items():
            yield (f"{prefix}{name}", b)
        for child_name, child in self._modules.items():
            yield from child.named_buffers(prefix=f"{prefix}{child_name}.")

    def children(self) -> Iterator["Module"]:
        yield from self._modules.values()

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        yield (prefix.rstrip("."), self)
        for child_name, child in self._modules.items():
            yield from child.named_modules(prefix=f"{prefix}{child_name}.")

    def modules(self) -> Iterator["Module"]:
        for _, m in self.named_modules():
            yield m

    def apply(self, fn: Callable[["Module"], None]) -> "Module":
        for module in self.modules():
            fn(module)
        return self

    # ------------------------------------------------------------------
    # train/eval and grads
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        # runs on every replayed forward: walk without building dotted
        # names, and store the plain flag past __setattr__'s registry checks
        stack = [self]
        while stack:
            module = stack.pop()
            module.__dict__["training"] = mode
            stack.extend(module._modules.values())
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------
    def register_forward_hook(self, hook: Callable) -> HookHandle:
        """Register ``hook(module, inputs, output)``; may return a new output."""
        handle = HookHandle(self._forward_hooks)
        self._forward_hooks[handle.id] = hook
        return handle

    def register_forward_pre_hook(self, hook: Callable) -> HookHandle:
        """Register ``hook(module, inputs)``; may return replacement inputs."""
        handle = HookHandle(self._forward_pre_hooks)
        self._forward_pre_hooks[handle.id] = hook
        return handle

    # ------------------------------------------------------------------
    # forward dispatch
    # ------------------------------------------------------------------
    def forward(self, *inputs):  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *inputs):
        controller = Module._replay_controller
        if controller is not None:
            replayed = controller.intercept(self, inputs)
            if replayed is not COMPUTE:
                return replayed
        for hook in tuple(self._forward_pre_hooks.values()):
            result = hook(self, inputs)
            if result is not None:
                inputs = result if isinstance(result, tuple) else (result,)
        output = self.forward(*inputs)
        for hook in tuple(self._forward_hooks.values()):
            result = hook(self, inputs, output)
            if result is not None:
                output = result
        if controller is not None:
            controller.record(self, inputs, output)
        return output

    def forward_from(self, controller, *inputs):
        """Run one forward pass with ``controller`` intercepting module calls.

        ``controller`` implements the replay protocol (``intercept`` /
        ``record``); see the module docstring.  The controller is installed
        for the dynamic extent of this call only, then the previous one (if
        any) is restored — so nested / re-entrant use is safe.
        """
        previous = Module._replay_controller
        Module._replay_controller = controller
        try:
            return self(*inputs)
        finally:
            Module._replay_controller = previous

    # ------------------------------------------------------------------
    # state dict
    # ------------------------------------------------------------------
    def state_dict(self) -> "OrderedDict[str, np.ndarray]":
        state: OrderedDict[str, np.ndarray] = OrderedDict()
        for name, p in self.named_parameters():
            state[name] = p.data
        for name, b in self.named_buffers():
            state[name] = b
        return state

    def load_state_dict(self, state: dict, strict: bool = True) -> None:
        own_params = dict(self.named_parameters())
        own_buffers = dict(self.named_buffers())
        missing = (set(own_params) | set(own_buffers)) - set(state)
        unexpected = set(state) - (set(own_params) | set(own_buffers))
        if strict and (missing or unexpected):
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}"
            )
        for name, value in state.items():
            if name in own_params:
                target = own_params[name]
                if target.data.shape != value.shape:
                    raise ValueError(
                        f"shape mismatch for {name}: {target.data.shape} vs {value.shape}"
                    )
                np.copyto(target.data, value)
            elif name in own_buffers:
                np.copyto(own_buffers[name], value)

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def __repr__(self) -> str:
        lines = [type(self).__name__ + "("]
        for name, child in self._modules.items():
            child_repr = repr(child).replace("\n", "\n  ")
            lines.append(f"  ({name}): {child_repr}")
        lines.append(")")
        return "\n".join(lines) if len(lines) > 2 else f"{type(self).__name__}()"


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        for i, module in enumerate(modules):
            self._modules[str(i)] = module

    def __iter__(self) -> Iterator[Module]:
        return iter(self._modules.values())

    def __getitem__(self, index: int) -> Module:
        return list(self._modules.values())[index]

    def __len__(self) -> int:
        return len(self._modules)

    def append(self, module: Module) -> "Sequential":
        self._modules[str(len(self._modules))] = module
        return self

    def forward(self, x: Tensor) -> Tensor:
        for module in self._modules.values():
            x = module(x)
        return x


class ModuleList(Module):
    """A list of registered sub-modules (no forward of its own)."""

    def __init__(self, modules: list[Module] | None = None):
        super().__init__()
        for i, module in enumerate(modules or []):
            self._modules[str(i)] = module

    def __iter__(self) -> Iterator[Module]:
        return iter(self._modules.values())

    def __getitem__(self, index: int) -> Module:
        return list(self._modules.values())[index]

    def __len__(self) -> int:
        return len(self._modules)

    def append(self, module: Module) -> "ModuleList":
        self._modules[str(len(self._modules))] = module
        return self
