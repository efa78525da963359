"""Compact, lazily-materializing /24 universe.

A paper-scale scenario advertises millions of allocated /24s. Keeping
each as a :class:`~repro.net.prefix.Prefix` instance costs ~100 bytes
apiece before anything is ever probed; the universe here stores just
the sorted 32-bit network addresses in a numpy array (4 bytes per /24)
and materializes ``Prefix`` objects only at the point of access —
iteration yields fresh objects, and indexing is O(1).
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Union, overload

import numpy as np

from ..net.prefix import Prefix


class LazySlash24Universe(Sequence[Prefix]):
    """Sorted, immutable sequence of /24 :class:`Prefix` objects backed
    by a ``uint32`` array of network addresses."""

    __slots__ = ("_networks",)

    def __init__(self, networks: Union[Sequence[int], np.ndarray]) -> None:
        array = np.asarray(networks, dtype=np.uint64).astype(np.uint32)
        array = np.sort(array)
        self._networks = array

    @property
    def networks(self) -> np.ndarray:
        """The sorted network addresses (read-only view)."""
        view = self._networks.view()
        view.flags.writeable = False
        return view

    def __len__(self) -> int:
        return int(self._networks.shape[0])

    @overload
    def __getitem__(self, index: int) -> Prefix: ...

    @overload
    def __getitem__(self, index: slice) -> List[Prefix]: ...

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [
                Prefix(int(network), 24)
                for network in self._networks[index]
            ]
        return Prefix(int(self._networks[index]), 24)

    def __iter__(self) -> Iterator[Prefix]:
        for network in self._networks:
            yield Prefix(int(network), 24)

    def __contains__(self, item: object) -> bool:
        if not isinstance(item, Prefix) or item.length != 24:
            return False
        position = int(
            np.searchsorted(self._networks, np.uint32(item.network))
        )
        return (
            position < self._networks.shape[0]
            and int(self._networks[position]) == item.network
        )

    def __repr__(self) -> str:
        return f"LazySlash24Universe({len(self)} /24s)"
