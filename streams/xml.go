package streams

import (
	"encoding/xml"
	"fmt"
	"io"
)

// The Streams framework describes data flow graphs in an XML-based
// language (Section 3). LoadXML accepts documents of the form
//
//	<application>
//	  <queue id="sdes" capacity="1024"/>
//	  <process id="input" input="bus-stream" output="sdes">
//	    <processor class="rename" from="raw" to="sde"/>
//	  </process>
//	  <service id="trafficModel" class="gp"/>
//	</application>
//
// Processor and service classes are resolved against a Registry of
// factories, the analogue of "adding customized processors ... by
// implementing the respective interfaces of the Streams API". Streams
// (the graph inputs) are bound programmatically via Topology.AddStream
// before or after loading.

// ProcessorFactory builds a processor from the attributes of its XML
// element (every attribute except "class").
type ProcessorFactory func(params map[string]string) (Processor, error)

// ServiceFactory builds a service from its XML attributes.
type ServiceFactory func(params map[string]string) (Service, error)

// Registry resolves processor and service class names.
type Registry struct {
	processors map[string]ProcessorFactory
	services   map[string]ServiceFactory
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		processors: make(map[string]ProcessorFactory),
		services:   make(map[string]ServiceFactory),
	}
}

// RegisterProcessor adds a processor class.
func (r *Registry) RegisterProcessor(class string, f ProcessorFactory) error {
	if _, dup := r.processors[class]; dup {
		return fmt.Errorf("streams: duplicate processor class %q", class)
	}
	r.processors[class] = f
	return nil
}

// RegisterService adds a service class.
func (r *Registry) RegisterService(class string, f ServiceFactory) error {
	if _, dup := r.services[class]; dup {
		return fmt.Errorf("streams: duplicate service class %q", class)
	}
	r.services[class] = f
	return nil
}

// xmlApplication mirrors the document structure.
type xmlApplication struct {
	XMLName   xml.Name     `xml:"application"`
	Queues    []xmlQueue   `xml:"queue"`
	Processes []xmlProcess `xml:"process"`
	Services  []xmlElem    `xml:"service"`
}

type xmlQueue struct {
	ID       string `xml:"id,attr"`
	Capacity int    `xml:"capacity,attr"`
}

type xmlProcess struct {
	ID         string    `xml:"id,attr"`
	Input      string    `xml:"input,attr"`
	Output     string    `xml:"output,attr"`
	Processors []xmlElem `xml:"processor"`
}

// xmlElem captures an element with arbitrary attributes.
type xmlElem struct {
	Attrs []xml.Attr `xml:",any,attr"`
}

func (e xmlElem) params() (class string, params map[string]string) {
	params = make(map[string]string)
	for _, a := range e.Attrs {
		if a.Name.Local == "class" {
			class = a.Value
			continue
		}
		params[a.Name.Local] = a.Value
	}
	return class, params
}

// maxXMLQueueCapacity bounds a queue capacity a flow definition may
// declare: the buffer is allocated when the document is loaded, so an
// unchecked attribute would size an allocation by untrusted input.
const maxXMLQueueCapacity = 1 << 16

// LoadXML parses a flow definition and adds its queues, processes and
// services to the topology. Inputs referenced by processes must
// already exist in the topology (as streams or queues declared earlier
// in the same document).
func LoadXML(t *Topology, reg *Registry, r io.Reader) error {
	var app xmlApplication
	if err := xml.NewDecoder(r).Decode(&app); err != nil {
		return fmt.Errorf("streams: parsing flow definition: %w", err)
	}
	for _, q := range app.Queues {
		if q.ID == "" {
			return fmt.Errorf("streams: queue without id")
		}
		if q.Capacity > maxXMLQueueCapacity {
			return fmt.Errorf("streams: queue %q capacity %d exceeds %d", q.ID, q.Capacity, maxXMLQueueCapacity)
		}
		if _, err := t.AddQueue(q.ID, q.Capacity); err != nil {
			return err
		}
	}
	for _, s := range app.Services {
		class, params := s.params()
		id := params["id"]
		delete(params, "id")
		if id == "" || class == "" {
			return fmt.Errorf("streams: service needs id and class attributes")
		}
		f, ok := reg.services[class]
		if !ok {
			return fmt.Errorf("streams: unknown service class %q", class)
		}
		svc, err := f(params)
		if err != nil {
			return fmt.Errorf("streams: building service %q: %w", id, err)
		}
		if err := t.RegisterService(id, svc); err != nil {
			return err
		}
	}
	for _, p := range app.Processes {
		if p.ID == "" {
			return fmt.Errorf("streams: process without id")
		}
		var procs []Processor
		for i, pe := range p.Processors {
			class, params := pe.params()
			if class == "" {
				return fmt.Errorf("streams: process %q processor %d has no class", p.ID, i)
			}
			f, ok := reg.processors[class]
			if !ok {
				return fmt.Errorf("streams: unknown processor class %q", class)
			}
			proc, err := f(params)
			if err != nil {
				return fmt.Errorf("streams: building processor %q: %w", class, err)
			}
			procs = append(procs, proc)
		}
		if err := t.AddProcess(p.ID, p.Input, p.Output, procs...); err != nil {
			return err
		}
	}
	return nil
}
