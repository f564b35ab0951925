"""Base of the slotted record types: factor lists, local factors, zeta
forms, convergence data and numeric results.

A record's fields are the __slots__ of its class, in order.  Records
are equal when they are of one class with equal fields, and their repr
is Class(field=value, ...).  Subclasses write their own __init__, so a
normalising constructor stays an ordinary one.
"""
from __future__ import annotations


class Record:
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, k) for k in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % (k, getattr(self, k)) for k in self.__slots__))
